package sched

import "detournet/internal/core"

// RouteHealth is the cache's view of one candidate route.
type RouteHealth int

const (
	// RouteHealthy: eligible for election and failover.
	RouteHealthy RouteHealth = iota
	// RouteConverging: a routing event touched the route's path and the
	// control plane has not reconverged yet. Distinct from quarantine —
	// the route did nothing wrong, the ground is moving under it. It is
	// skipped for election but cleared the moment a matching announce
	// arrives (or the hold expires).
	RouteConverging
	// RouteQuarantined: the route failed a transfer and is benched for
	// the quarantine TTL.
	RouteQuarantined
)

func (h RouteHealth) String() string {
	switch h {
	case RouteConverging:
		return "converging"
	case RouteQuarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// Health reports the cache's view of one route under a key.
func (c *RouteCache) Health(k CacheKey, r core.Route) RouteHealth {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return RouteHealthy
	}
	if until, q := e.quarantined[r]; q && now < until {
		return RouteQuarantined
	}
	if until, cv := e.converging[r]; cv && now < until {
		return RouteConverging
	}
	return RouteHealthy
}

// SetCompactEvery overrides the compaction cadence (finishes per
// compaction; <= 0 disables compaction).
func (cj *ControlJournal) SetCompactEvery(n int) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.compactEvery = n
}
