package health

// Baseline returns an entity's learned rate (bytes/sec) and whether one
// exists.
func (t *Tracker) Baseline(class, name string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entities[key(class, name)]
	if !ok || e.base.Count() == 0 {
		return 0, false
	}
	return e.base.Value(), true
}
