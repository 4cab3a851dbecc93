package overlay

// Stat returns the current estimate for a directed pair.
func (m *Mesh) Stat(src, dst string) (Stat, bool) {
	s, ok := m.stats[[2]string{src, dst}]
	if !ok {
		return Stat{}, false
	}
	return *s, true
}
