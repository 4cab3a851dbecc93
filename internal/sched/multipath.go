// Multipath job mode: stripe one upload across several concurrent
// routes. The scheduler owns admission — it acquires one capacity slot
// per lane (the provider slot plus, for detours, the DTN slot, exactly
// as K single-path jobs would) and sheds the extra lanes under brownout
// (a multipath job degrades to a plain single-path transfer rather than
// amplifying an overloaded fleet). The striping itself — the chunk
// ledger, work stealing, hedged tail re-dispatch, per-path checkpoints
// — lives in internal/multipath behind the MultipathExecutor seam.
package sched

import (
	"detournet/internal/core"
	"detournet/internal/multipath"
)

// JobMode selects a job's transfer strategy.
type JobMode int

const (
	// JobSingle runs the job over one chosen route (the default).
	JobSingle JobMode = iota
	// JobMultipath stripes the job across direct + detour routes
	// concurrently when the Executor implements MultipathExecutor.
	JobMultipath
)

// MultipathExecutor is an Executor that can stripe one job across
// several routes at once. Routes are the lanes to drive concurrently
// (the scheduler has already taken a capacity slot for each); the
// returned report carries per-path chunk assignment and accounting.
type MultipathExecutor interface {
	Executor
	ExecuteMultipath(job Job, routes []core.Route, chunk float64) (multipath.Report, error)
}

// runMultipath runs one striped attempt. done=false means the caller
// should fall back to the single-path flow: brownout is shedding
// optional work, the executor can't stripe, no second lane exists, or
// the striped attempt itself failed (the job's data is intact — parts
// are separate objects — so a plain retry is safe).
func (s *Scheduler) runMultipath(j Job, key CacheKey, route core.Route, hit bool) (Result, bool) {
	mx, ok := s.cfg.Executor.(MultipathExecutor)
	if !ok || s.brownoutActive() {
		return Result{}, false
	}
	routes := s.multipathRoutes(key, j, route)
	if len(routes) < 2 {
		return Result{}, false
	}
	// One capacity slot per lane, all taken in a single atomic,
	// non-blocking step: a per-lane blocking loop would hold earlier
	// slots while waiting on later ones, deadlocking two striped jobs
	// against each other (or one job against a ProviderCap below its
	// lane count). Lanes that don't fit right now are simply dropped;
	// fewer than two means striping is pointless, so degrade to the
	// single-path flow, which queues fairly like any other job.
	vias := make([]string, len(routes))
	for i, r := range routes {
		vias[i] = r.Via
	}
	idx := s.caps.tryAcquireLanes(j.Provider, vias)
	if len(idx) < 2 {
		for _, i := range idx {
			s.caps.release(j.Provider, routes[i].Via)
		}
		return Result{}, false
	}
	lanes := make([]core.Route, len(idx))
	for n, i := range idx {
		lanes[n] = routes[i]
	}
	rep, err := mx.ExecuteMultipath(j, lanes, multipathChunk)
	for _, r := range lanes {
		s.caps.release(j.Provider, r.Via)
	}
	if err != nil {
		s.breakers.failure(breakerKey(j.Provider, route))
		return Result{}, false
	}
	var resumed, rewritten float64
	for _, pr := range rep.Paths {
		resumed += pr.Resumed
		rewritten += pr.Rewritten
	}
	m := s.met
	m.mpJobs.Inc()
	m.mpHedged.Add(float64(rep.HedgedChunks))
	m.mpResent.Add(float64(rep.ResentChunks))
	m.mpDuplicateBytes.Add(rep.DuplicateBytes)
	m.bytesResumed.Add(resumed)
	m.bytesRewritten.Add(rewritten)
	s.breakers.success(providerKey(j.Provider))
	if s.cfg.Journal != nil {
		// Journal the lane outcome: which routes carried how many stripe
		// chunks. Observational — a recovered multipath job re-stripes
		// from scratch (stripe parts are provider-side objects) — but the
		// record makes the dead process's lane state auditable.
		paths := make([]string, len(rep.Paths))
		chunks := make([]int, len(rep.Paths))
		for i, pr := range rep.Paths {
			paths[i] = pr.Route
			chunks[i] = len(pr.Chunks)
		}
		s.cfg.Journal.NoteLanes(j.Name, paths, chunks)
	}
	if !s.brownoutActive() {
		// Feed the bandit per lane: each lane's committed bytes over its
		// own busy time is a genuine (if contended, conservative)
		// observation of that route. Crediting the striped aggregate to
		// the primary route would teach the cache a multi-lane rate no
		// single path can deliver and skew later single-path selection.
		for _, pr := range rep.Paths {
			if pr.ID < 0 || pr.ID >= len(lanes) || pr.Bytes <= 0 || pr.Seconds <= 0 {
				continue
			}
			s.cache.Observe(key, lanes[pr.ID], pr.Bytes, pr.Seconds)
		}
	}
	return Result{
		Job: j, Route: route, Seconds: rep.Seconds, Attempts: 1,
		CacheHit: hit, Resumed: resumed, Rewritten: rewritten,
		Multipath: &rep,
	}, true
}

// multipathRoutes assembles the job's lane set: direct first (it is
// always a lane — the paper's capped-last-mile sites lose nothing, and
// everyone else gains its capacity), then the planned route and the
// cache's detour candidates, deduplicated, capped at the job's or the
// config's path limit.
func (s *Scheduler) multipathRoutes(key CacheKey, j Job, primary core.Route) []core.Route {
	maxPaths := j.MaxPaths
	if maxPaths <= 0 {
		maxPaths = multipathMaxPaths
	}
	// A striped job can never hold more provider slots than the cap —
	// asking for more would just burn admission attempts.
	if s.cfg.ProviderCap > 0 && maxPaths > s.cfg.ProviderCap {
		maxPaths = s.cfg.ProviderCap
	}
	routes := []core.Route{core.DirectRoute}
	add := func(r core.Route) {
		if r.Kind != core.Detour || len(routes) >= maxPaths {
			return
		}
		if s.cfg.Capacity != nil && s.capacityWeight(r) <= capWeightCritical {
			// A critically full DTN is no lane at all: its staging disk
			// would nack the stripe's hop-1 bytes on arrival.
			return
		}
		for _, have := range routes {
			if have == r {
				return
			}
		}
		routes = append(routes, r)
	}
	add(primary)
	for _, c := range s.cache.Candidates(key) {
		add(c)
	}
	if s.cfg.Capacity != nil && len(routes) > 2 {
		// Graceful degradation under storage pressure: when any chosen
		// lane's DTN is inside the discounted headroom band, stripe over
		// two lanes instead of rejecting (or draining the fleet's last
		// staging bytes across a wide stripe).
		pressured := false
		for _, r := range routes {
			if s.capacityWeight(r) < 1 {
				pressured = true
				break
			}
		}
		if pressured {
			routes = routes[:2]
		}
	}
	return routes
}
