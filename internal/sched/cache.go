package sched

import (
	"sync"

	"detournet/internal/core"
	"detournet/internal/detourselect"
)

// CacheKey identifies one route decision. Size enters through a coarse
// bucket because the best route depends on file size (the paper's
// central size-dependence result), but caching per exact byte count
// would never hit.
type CacheKey struct {
	Client   string
	Provider string
	// SizeBucket is a base-4 magnitude bucket of the file size (see
	// SizeBucket).
	SizeBucket int
}

// SizeBucket buckets a byte count: 0 for sub-megabyte files, then one
// bucket per 4x of size (1–4 MB, 4–16 MB, 16–64 MB, ...), capped at 8.
// Within a bucket the ranking of routes is stable even though absolute
// times differ.
func SizeBucket(bytes float64) int {
	mb := bytes / 1e6
	b := 0
	for mb >= 1 && b < 8 {
		mb /= 4
		b++
	}
	return b
}

// KeyFor builds the cache key for one transfer.
func KeyFor(client, provider string, size float64) CacheKey {
	return CacheKey{Client: client, Provider: provider, SizeBucket: SizeBucket(size)}
}

// PathHop is one node of a candidate route's forwarding path, kept so
// routing events can be matched against cached decisions.
type PathHop struct {
	Node   string
	Domain string
}

// RouteEvent is the scheduler-facing form of a routing-plane event (see
// bgppol.Event): a withdraw or announce scoped either to a BGP session
// (DomainA/DomainB) or to a link or node (FromNode, and optionally
// ToNode).
type RouteEvent struct {
	Withdraw         bool
	DomainA, DomainB string
	FromNode, ToNode string
	// At is the event's virtual timestamp. ApplyRouteEvent uses it as
	// "now" so it never has to read the clock — events are published from
	// inside simulation workloads, where calling back into the executor's
	// clock would deadlock. Zero falls back to the cache clock.
	At float64
	// ConvergedBy is when the last domain will have adopted the change;
	// converging holds last at least until then.
	ConvergedBy float64
}

// entry is one cached decision plus the online state that refines it.
type entry struct {
	route      core.Route
	expires    float64
	candidates []core.Route
	// bandit keeps per-route throughput estimates from completed
	// transfers, so repeated traffic refreshes the decision without
	// re-probing.
	bandit *detourselect.Bandit
	// quarantined benches failed detours until the given clock time.
	quarantined map[core.Route]float64
	// converging holds routes whose paths a withdraw touched, until the
	// given clock time or a matching announce.
	converging map[core.Route]float64
	// paths are the forwarding paths the planner resolved per candidate,
	// for event matching.
	paths map[core.Route][]PathHop
}

// RouteCache caches route decisions with TTL expiry, failure-driven
// invalidation, and bandit-driven refresh. It is safe for concurrent
// use. Every method reads the clock before taking c.mu, never under
// it: the clock may take a lock of its own (SimExecutor.VirtualNow)
// whose holder calls back into the cache.
type RouteCache struct {
	mu         sync.Mutex
	ttl        float64
	quarantine float64
	now        func() float64
	entries    map[CacheKey]*entry
	// weight, when set, multiplies each candidate's bandit score at
	// election time — the health layer's probation down-weighting hook.
	weight      func(core.Route) float64
	invalidates int64
	converges   int64 // routes marked converging by events
	announces   int64 // routes cleared by announce events
}

// NewRouteCache builds a cache. ttl and quarantineTTL are in the
// clock's seconds; now is the clock.
func NewRouteCache(ttl, quarantineTTL float64, now func() float64) *RouteCache {
	if ttl <= 0 {
		panic("sched: non-positive cache TTL")
	}
	if now == nil {
		panic("sched: RouteCache needs a clock")
	}
	if quarantineTTL <= 0 {
		quarantineTTL = ttl
	}
	return &RouteCache{
		ttl: ttl, quarantine: quarantineTTL, now: now,
		entries: make(map[CacheKey]*entry),
	}
}

// SetWeight installs the selection-weight hook applied to every
// entry's bandit at election time (see detourselect.Bandit.Weight).
// Entries created before the call pick the hook up too. nil removes it.
func (c *RouteCache) SetWeight(w func(core.Route) float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.weight = w
	for _, e := range c.entries {
		if e.bandit != nil {
			e.bandit.Weight = w
		}
	}
}

// Lookup returns the cached route for a key. A hit means the caller
// skips probing entirely — including when the cached detour is
// quarantined, in which case the entry has already been switched to
// direct.
func (c *RouteCache) Lookup(k CacheKey) (core.Route, bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || now >= e.expires {
		if ok {
			delete(c.entries, k)
		}
		return core.Route{}, false
	}
	return e.route, true
}

// LookupStale returns the cached route for a key even when the entry's
// TTL has lapsed, without deleting it — brownout mode's degraded read:
// a stale decision beats paying a probe while the scheduler is
// overloaded. fresh reports whether the entry was still within TTL.
func (c *RouteCache) LookupStale(k CacheKey) (route core.Route, fresh, ok bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, present := c.entries[k]
	if !present {
		return core.Route{}, false, false
	}
	return e.route, now < e.expires, true
}

// Insert stores a fresh decision for the TTL. candidates (may be nil)
// are the routes the planner considered; they seed the bandit that
// refines the decision from live traffic.
func (c *RouteCache) Insert(k CacheKey, route core.Route, candidates []core.Route) {
	c.InsertWithPaths(k, route, candidates, nil)
}

// InsertWithPaths is Insert plus the forwarding path of each candidate,
// enabling push-based invalidation: ApplyRouteEvent matches events
// against these hops instead of waiting for TTL expiry or a failed
// transfer.
func (c *RouteCache) InsertWithPaths(k CacheKey, route core.Route, candidates []core.Route, paths map[core.Route][]PathHop) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &entry{
		route:       route,
		expires:     now + c.ttl,
		candidates:  append([]core.Route(nil), candidates...),
		quarantined: make(map[core.Route]float64),
		converging:  make(map[core.Route]float64),
		paths:       paths,
	}
	if len(e.candidates) > 0 {
		e.bandit = detourselect.NewBandit(e.candidates)
		e.bandit.Weight = c.weight
	}
	c.entries[k] = e
}

// Observe feeds a completed transfer back into the key's bandit and
// lets the observed throughputs re-elect the cached route — repeated
// traffic keeps the decision fresh without new probes.
func (c *RouteCache) Observe(k CacheKey, route core.Route, sizeBytes, seconds float64) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.bandit == nil {
		return
	}
	e.bandit.Observe(route, sizeBytes, seconds)
	best, bestT := e.route, -1.0
	for _, r := range e.candidates {
		if c.benched(e, r, now) {
			continue
		}
		if t := e.bandit.Score(r); t > bestT {
			best, bestT = r, t
		}
	}
	if bestT > 0 {
		e.route = best
	}
}

// benched reports whether r is quarantined or converging at now.
// Callers hold c.mu.
func (c *RouteCache) benched(e *entry, r core.Route, now float64) bool {
	if until, q := e.quarantined[r]; q && now < until {
		return true
	}
	if until, cv := e.converging[r]; cv && now < until {
		return true
	}
	return false
}

// Invalidate benches a failed route for the quarantine TTL. If it was
// the cached decision, the entry switches to direct immediately — the
// fleet stops sending traffic into a dead DTN without waiting for
// expiry. Invalidating a direct route drops the whole entry (the next
// job re-plans).
func (c *RouteCache) Invalidate(k CacheKey, failed core.Route) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return
	}
	c.invalidates++
	if failed.Kind == core.Direct {
		delete(c.entries, k)
		return
	}
	e.quarantined[failed] = now + c.quarantine
	if e.route == failed {
		e.route = core.DirectRoute
	}
}

// Candidates returns the key's non-quarantined candidate routes (nil
// when the key is absent) — the failover pool a job can switch to
// mid-flight when its chosen route dies underneath it.
func (c *RouteCache) Candidates(k CacheKey) []core.Route {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return nil
	}
	out := make([]core.Route, 0, len(e.candidates))
	for _, r := range e.candidates {
		if c.benched(e, r, now) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// pathTouched matches one candidate's forwarding path against an
// event: a node/link event matches a hop (or consecutive hop pair, in
// either direction), a session event matches a domain-boundary
// crossing in either direction.
func pathTouched(hops []PathHop, ev RouteEvent) bool {
	if ev.FromNode != "" {
		for i, h := range hops {
			if h.Node != ev.FromNode && (ev.ToNode == "" || h.Node != ev.ToNode) {
				continue
			}
			if ev.ToNode == "" {
				return true
			}
			var prev, next string
			if i > 0 {
				prev = hops[i-1].Node
			}
			if i+1 < len(hops) {
				next = hops[i+1].Node
			}
			other := ev.ToNode
			if h.Node == ev.ToNode {
				other = ev.FromNode
			}
			if prev == other || next == other {
				return true
			}
		}
		return false
	}
	if ev.DomainA != "" {
		for i := 0; i+1 < len(hops); i++ {
			a, b := hops[i].Domain, hops[i+1].Domain
			if (a == ev.DomainA && b == ev.DomainB) || (a == ev.DomainB && b == ev.DomainA) {
				return true
			}
		}
	}
	return false
}

// ApplyRouteEvent is push-based invalidation: every cached candidate
// whose stored forwarding path the event touches is marked converging
// (withdraw) or restored to health (announce — converging and
// quarantine both clear, the fix for restored links rotting in
// quarantine until TTL). A withdraw that hits the elected route
// re-elects the best healthy candidate immediately, falling back to
// direct.
func (c *RouteCache) ApplyRouteEvent(ev RouteEvent) {
	now := ev.At
	if now == 0 {
		now = c.now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hold := now + c.quarantine
	if ev.ConvergedBy > hold {
		hold = ev.ConvergedBy
	}
	for _, e := range c.entries {
		for r, hops := range e.paths {
			if !pathTouched(hops, ev) {
				continue
			}
			if ev.Withdraw {
				e.converging[r] = hold
				c.converges++
				if e.route == r {
					c.invalidates++
					e.route = c.electLocked(e, now)
				}
			} else {
				delete(e.converging, r)
				delete(e.quarantined, r)
				c.announces++
			}
		}
	}
}

// electLocked picks the best unbenched candidate by observed
// throughput, defaulting to direct. Callers hold c.mu.
func (c *RouteCache) electLocked(e *entry, now float64) core.Route {
	best, bestT := core.DirectRoute, -1.0
	for _, r := range e.candidates {
		if c.benched(e, r, now) {
			continue
		}
		t := 0.0
		if e.bandit != nil {
			t = e.bandit.Score(r)
		}
		if t > bestT {
			best, bestT = r, t
		}
	}
	return best
}

// Counters returns the cache's lifetime counts: failure-driven
// invalidations, routes marked converging by withdraws, and routes
// restored by announces. The scheduler counts hits and misses itself,
// in its registry.
func (c *RouteCache) Counters() (invalidations, converges, announces int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidates, c.converges, c.announces
}
