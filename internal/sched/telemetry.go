package sched

import (
	"strconv"

	"detournet/internal/core"
	"detournet/internal/telemetry"
)

// schedMetrics holds pre-resolved registry handles for the scheduler's
// hot paths: one family lookup at construction, one atomic op per
// observation after that. The handles are the scheduler's only copy of
// every count they cover — Stats reads them back — so they always
// exist, in a private registry when Config.Telemetry is nil.
type schedMetrics struct {
	submitted, done, failed, expired, shed, late *telemetry.Metric
	rejected                                     *telemetry.Family // reason
	retries, fallbacks, failovers                *telemetry.Metric
	reroutes, parks, stalls, stallReroutes       *telemetry.Metric
	hedges, hedgeWins, canaries                  *telemetry.Metric
	quotaFails, quotaReclaims, spills            *telemetry.Metric
	quotaParks, budgetParks                      *telemetry.Metric
	queueDepth, running                          *telemetry.Metric
	queueDelay, transferSec, attempts            *telemetry.Metric
	routeBytes, routeJobs                        *telemetry.Family // route
	// directBytes/directJobs are the pre-resolved "direct" children of
	// the route families — the common case skips the label lookup.
	directBytes, directJobs *telemetry.Metric
}

func newSchedMetrics(reg *telemetry.Registry) *schedMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &schedMetrics{
		submitted: reg.Counter("sched_jobs_submitted_total", "Jobs admitted to the queue.").With(),
		done:      reg.Counter("sched_jobs_done_total", "Jobs finished successfully.").With(),
		failed:    reg.Counter("sched_jobs_failed_total", "Jobs terminally failed.").With(),
		expired:   reg.Counter("sched_jobs_expired_total", "Jobs expired past their deadline.").With(),
		shed:      reg.Counter("sched_jobs_shed_total", "Jobs shed by CoDel at dequeue.").With(),
		late:      reg.Counter("sched_jobs_late_total", "Jobs that finished past their deadline.").With(),
		rejected:  reg.Counter("sched_rejects_total", "Submissions rejected at the door.", "reason"),

		retries:       reg.Counter("sched_retries_total", "Attempt retries (backoff and free reroutes).").With(),
		fallbacks:     reg.Counter("sched_fallbacks_total", "Detour-to-direct fallbacks.").With(),
		failovers:     reg.Counter("sched_failovers_total", "Route-down failovers to an alternate route.").With(),
		reroutes:      reg.Counter("sched_reroutes_total", "Mid-transfer make-before-break reroutes.").With(),
		parks:         reg.Counter("sched_parks_total", "Attempts that parked waiting for any route.").With(),
		stalls:        reg.Counter("sched_stalls_total", "Watchdog-aborted stalled transfers.").With(),
		stallReroutes: reg.Counter("sched_stall_reroutes_total", "Free failovers after a stall.").With(),
		hedges:        reg.Counter("sched_hedges_total", "Hedged transfers launched.").With(),
		hedgeWins:     reg.Counter("sched_hedge_wins_total", "Hedges that beat the primary.").With(),
		canaries:      reg.Counter("sched_canaries_total", "Canary probes of probation routes.").With(),

		quotaFails:    reg.Counter("sched_quota_fails_total", "Provider quota-full failures.").With(),
		quotaReclaims: reg.Counter("sched_quota_reclaims_total", "Successful quota reclaims.").With(),
		spills:        reg.Counter("sched_provider_spills_total", "Jobs spilled to an alternate provider.").With(),
		quotaParks:    reg.Counter("sched_quota_parks_total", "Jobs parked on exhausted quota.").With(),
		budgetParks:   reg.Counter("sched_budget_parks_total", "Jobs parked on an exhausted retry budget.").With(),

		queueDepth: reg.Gauge("sched_queue_depth", "Jobs waiting in the queue.").With(),
		running:    reg.Gauge("sched_running", "Jobs currently executing.").With(),

		queueDelay: reg.Histogram("sched_queue_delay_seconds", "Time from admit to dequeue.",
			telemetry.HistOpts{Start: 0.001, Factor: 4, Buckets: 12}).With(),
		transferSec: reg.Histogram("sched_transfer_seconds", "Successful transfer durations.",
			telemetry.HistOpts{Start: 0.25, Factor: 2, Buckets: 16}).With(),
		attempts: reg.Histogram("sched_job_attempts", "Attempts per finished job.",
			telemetry.HistOpts{Start: 1, Factor: 2, Buckets: 5}).With(),

		routeBytes: reg.Counter("sched_route_bytes_total", "Bytes delivered, by final route.", "route"),
		routeJobs:  reg.Counter("sched_route_jobs_total", "Jobs delivered, by final route.", "route"),
	}
	m.directBytes = m.routeBytes.With("direct")
	m.directJobs = m.routeJobs.With("direct")
	return m
}

// routeMetrics resolves the per-route delivery counters, using the
// pre-resolved handles for the direct route.
func (m *schedMetrics) routeMetrics(r core.Route) (bytes, jobs *telemetry.Metric) {
	if r.Kind != core.Detour {
		return m.directBytes, m.directJobs
	}
	lbl := routeLabel(r)
	return m.routeBytes.With(lbl), m.routeJobs.With(lbl)
}

// noteDepth refreshes the occupancy gauges from the counters already
// guarded by s.mu; callers must hold s.mu.
func (s *Scheduler) noteDepthLocked() {
	q := s.pending - s.running
	if q < 0 {
		q = 0
	}
	s.met.queueDepth.Set(float64(q))
	s.met.running.Set(float64(s.running))
}

// Depths is a lock-cheap occupancy snapshot (queued, running) for
// samplers — unlike Stats it copies no maps.
func (s *Scheduler) Depths() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.pending - s.running
	if q < 0 {
		q = 0
	}
	return int(q), int(s.running)
}

// recordTerminal writes the terminal flight-recorder event for a result
// and applies retention: failed traces are kept in full, successes are
// truncated to a count.
func (s *Scheduler) recordTerminal(res Result) {
	if s.rec == nil {
		return
	}
	if res.Err != nil {
		res.tr.Note("job.failed",
			"err", res.Err.Error(),
			"attempts", strconv.Itoa(res.Attempts),
			"route", res.Route.String())
		s.rec.Finish(res.tr, res.Job.Name, true)
		return
	}
	res.tr.Note("job.done",
		"sec", strconv.FormatFloat(res.Seconds, 'g', -1, 64),
		"route", res.Route.String())
	s.rec.Finish(res.tr, res.Job.Name, false)
}

// routeLabel collapses a route to its metric label: "direct" or
// "detour:<dtn>", keeping family cardinality bounded by the DTN fleet.
func routeLabel(r core.Route) string {
	if r.Kind == core.Detour {
		return "detour:" + r.Via
	}
	return "direct"
}
