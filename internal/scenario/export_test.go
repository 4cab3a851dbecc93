package scenario

// DomainPathOf returns the AS-level path a host-to-host route crosses,
// consecutive duplicate domains collapsed.
func (w *World) DomainPathOf(src, dst string) ([]string, error) {
	nodes, err := w.Graph.Path(src, dst)
	if err != nil {
		return nil, err
	}
	var doms []string
	for _, n := range nodes {
		if len(doms) == 0 || doms[len(doms)-1] != n.Domain {
			doms = append(doms, n.Domain)
		}
	}
	return doms, nil
}
