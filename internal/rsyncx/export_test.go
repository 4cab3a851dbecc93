package rsyncx

// LiteralBytes returns how many literal bytes the delta carries.
func (d *Delta) LiteralBytes() int {
	var n int
	for _, op := range d.Ops {
		if op.Kind == OpData {
			n += len(op.Data)
		}
	}
	return n
}
