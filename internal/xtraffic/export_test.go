package xtraffic

// Load returns the process's current load fraction, syncing a dormant
// process first; a stopped one reports the load it had at its stop.
func (p *Process) Load() float64 {
	p.Sync()
	return p.load
}

// Bad reports whether the link is currently in a congestion episode,
// syncing a dormant process first; a stopped one reports its state at
// its stop.
func (p *OnOffProcess) Bad() bool {
	p.Sync()
	return p.bad
}
