// Package sched is the multi-tenant transfer-scheduler control plane:
// the long-lived layer the paper's one-shot detours lack. It accepts
// many concurrent upload jobs (tenant, provider, size, priority,
// deadline), admits them through per-tenant rate limits, queues them by
// priority, and drains them with a bounded worker pool that enforces
// per-provider and per-DTN concurrency caps so detour nodes don't
// self-congest.
//
// Route decisions come from a route cache keyed by (client, provider,
// size bucket) with TTL expiry and failure-driven invalidation,
// populated lazily from the probe selector and refreshed by the bandit
// on repeated traffic — the expensive probing the paper leaves as open
// work is paid once per key and amortized across the fleet. Failed hops
// retry with capped, jittered exponential backoff and fall back from
// detour to direct after repeated DTN failures.
//
// Unlike the simulation packages, the scheduler is really concurrent:
// workers are goroutines and all shared state is lock-guarded, so it
// runs (and is tested) under the race detector. The simulation plugs in
// behind the Executor/Planner seams (see SimExecutor).
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
	"unicode/utf8"

	"detournet/internal/core"
	"detournet/internal/health"
	"detournet/internal/multipath"
	"detournet/internal/telemetry"
)

// Job is one upload request submitted to the control plane.
type Job struct {
	// Tenant is the rate-limiting principal (a user, a site, an app).
	Tenant string
	// Client is the origin host the transfer leaves from.
	Client string
	// Provider is the destination cloud-storage service.
	Provider string
	// AltProviders, when non-empty, are fallback destinations the job
	// may spill to when Provider's storage quota is exhausted and
	// reclamation frees nothing — in preference order. A spill keeps
	// the job's hop-1 staging progress (DTN partials are
	// provider-agnostic) but starts a fresh provider session.
	AltProviders []string
	// Name is the object name; it should be unique per provider.
	Name string
	// Size is the file size in bytes.
	Size float64
	// MD5 is the source file's digest (rsyncx.Checksum). When set, a
	// resumable executor verifies the provider-side digest against it at
	// completion, so a corrupted or stale resume is detected and retried
	// instead of silently accepted. Empty skips verification.
	MD5 string
	// Mode selects how the transfer runs: JobSingle (default) picks one
	// route; JobMultipath stripes the upload across several concurrent
	// routes when the Executor supports it (and degrades to single-path
	// under brownout or on an unsupporting executor).
	Mode JobMode
	// MaxPaths caps a multipath job's concurrent routes (0 = the
	// scheduler default of 3).
	MaxPaths int
	// Priority orders the queue: higher drains sooner.
	Priority int
	// Deadline, when positive, is the scheduler-clock time after which
	// the job is dropped instead of run. Zero means no deadline.
	Deadline float64
}

// Result is the terminal outcome of one job.
type Result struct {
	Job   Job
	Route core.Route
	// Seconds is the successful transfer's duration (virtual seconds
	// under the simulation executor).
	Seconds float64
	// Attempts counts executions, including the successful one.
	Attempts int
	// CacheHit reports whether the job rode a cached route decision
	// (including decisions it coalesced onto) rather than paying a probe.
	CacheHit bool
	// Resumed and Rewritten are the job's checkpoint accounting when a
	// ResumableExecutor ran it: bytes skipped thanks to checkpoints, and
	// bytes sent more than once. Zero for plain executors.
	Resumed   float64
	Rewritten float64
	// ChunkRepairs counts manifest chunks the transfer re-sent to heal
	// staged-copy corruption — repairs, not integrity retries: the
	// transfer was never discarded, only the damaged chunks were paid
	// for again. Zero for plain executors.
	ChunkRepairs int
	// QueueDelay is how long the job waited between Submit and its
	// terminal dequeue (or its in-queue expiry), in scheduler-clock
	// seconds.
	QueueDelay float64
	// Late reports a job that completed successfully but after its
	// deadline — it ran, but its bytes don't count as goodput.
	Late bool
	// Hedged reports that at least one attempt raced a direct-route
	// hedge against the detour; HedgeWon reports the hedge finished
	// first.
	Hedged   bool
	HedgeWon bool
	// Reroutes counts mid-transfer route switches a ReroutingExecutor
	// performed make-before-break (checkpoint reattached on the new path
	// before the old flows died). Parked is how many scheduler-clock
	// seconds the job sat with no usable route at all, waiting for a
	// re-announce. Zero for plain executors.
	Reroutes int
	Parked   float64
	// Multipath carries the striped transfer's per-path report when the
	// job ran in JobMultipath mode (nil otherwise). Degraded reports a
	// multipath job that ran single-path instead — brownout shed the
	// extra lanes, the executor lacked support, or the striped attempt
	// failed and fell back.
	Multipath *multipath.Report
	Degraded  bool
	// Err is nil on success.
	Err error

	// tr is the job's live flight-recorder handle, threaded from runJob
	// to the terminal recording in finish. The zero Trace when recording
	// is off.
	tr telemetry.Trace
}

// Executor runs one transfer over a chosen route. Implementations must
// be safe for concurrent use; Execute blocks until the transfer ends.
type Executor interface {
	Execute(job Job, route core.Route) (seconds float64, err error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(Job, core.Route) (float64, error)

// Execute implements Executor.
func (f ExecutorFunc) Execute(j Job, r core.Route) (float64, error) { return f(j, r) }

// ResumableExecutor is an Executor that can carry a checkpoint across
// attempts — and across routes: the scheduler hands every attempt of a
// job the same *core.Checkpoint, so a retry resumes from the DTN's
// partial offset and a failover reattaches the provider session from
// the previous route instead of restarting at byte zero.
type ResumableExecutor interface {
	Executor
	ExecuteResumable(job Job, route core.Route, ck *core.Checkpoint) (seconds float64, err error)
}

// PrecheckExecutor is an Executor that can ask the destination
// provider whether a job's object already exists, intact, before
// moving any bytes. Crash recovery uses it to resolve the
// committed-but-unjournaled window: a job whose finish record died
// with the process but whose commit landed completes instantly instead
// of re-uploading (and the idempotent attempt ID would have suppressed
// the duplicate anyway).
type PrecheckExecutor interface {
	Precheck(job Job) bool
}

// HedgedExecutor is a ResumableExecutor that can race a direct-route
// hedge against a slow detour attempt: run the job on primary, and if
// it hasn't finished after budget seconds, launch a direct transfer and
// let them race — first success wins, the loser is cancelled (its flows
// killed, its partial bytes charged as rewritten in ck).
//
// It returns the winner's elapsed seconds and route, whether a hedge
// was actually launched (a primary that beats the budget never pays for
// one), and whether the hedge won.
type HedgedExecutor interface {
	ResumableExecutor
	ExecuteHedged(job Job, primary core.Route, budget float64, ck *core.Checkpoint) (seconds float64, winner core.Route, hedgeLaunched, hedgeWon bool, err error)
}

// ReroutingExecutor is a ResumableExecutor that survives routing churn
// from inside an attempt: when the path under a transfer is withdrawn,
// it establishes the best surviving route (core.RerouteOrder),
// reattaches the job's checkpoint there, and only then abandons the old
// flows — make-before-break. When no route exists at all it parks the
// transfer (up to parkBudget scheduler-clock seconds total) and resumes
// on re-announce; exhausting the budget fails with an error wrapping
// core.ErrNoRoute.
//
// It returns the transfer's elapsed seconds, the route it finally
// completed (or gave up) on, how many reroutes happened, and the total
// parked seconds.
type ReroutingExecutor interface {
	ResumableExecutor
	ExecuteRerouting(job Job, route core.Route, ck *core.Checkpoint, parkBudget float64) (seconds float64, final core.Route, reroutes int, parked float64, err error)
}

// Planner makes the expensive route decision for a cache miss —
// typically by probing every candidate path (detourselect.Selector).
// It returns the chosen route plus the full candidate set the cache's
// bandit keeps refining. Implementations must be concurrency-safe.
type Planner interface {
	Plan(client, provider string, size float64) (route core.Route, candidates []core.Route, err error)
}

// PlannerFunc adapts a function to the Planner interface.
type PlannerFunc func(string, string, float64) (core.Route, []core.Route, error)

// Plan implements Planner.
func (f PlannerFunc) Plan(c, p string, s float64) (core.Route, []core.Route, error) {
	return f(c, p, s)
}

// CapacityOracle reports a DTN's free staging bytes. When Config.
// Capacity is set, route election down-weights detours through DTNs
// below the headroom floor — spill-aware placement: jobs steer toward
// DTNs that can actually hold their hop-1 bytes, before the first
// ErrNoSpace rejection rather than after it.
type CapacityOracle interface {
	DTNHeadroom(dtn string) float64
}

// QuotaReclaimer is an Executor that can ask a provider to
// garbage-collect abandoned upload sessions, freeing their pending
// quota bytes. The scheduler calls it once per job on the first 507
// before considering a provider spill; it returns the bytes freed.
type QuotaReclaimer interface {
	ReclaimQuota(provider string) float64
}

// PathAwarePlanner is a Planner that can also report the node/domain
// hops each candidate route traverses. A scheduler whose planner
// implements it stores those paths alongside cache entries, which is
// what lets ApplyRouteEvent target invalidations at exactly the routes
// crossing a withdrawn session instead of flushing everything.
type PathAwarePlanner interface {
	Planner
	RoutePaths(client, provider string, routes []core.Route) map[core.Route][]PathHop
}

// Sentinel errors surfaced through Submit and Result.Err.
var (
	// ErrClosed reports a scheduler that has been shut down.
	ErrClosed = errors.New("sched: scheduler closed")
	// ErrRateLimited reports a Submit rejected by the tenant's bucket.
	ErrRateLimited = errors.New("sched: tenant rate limited")
	// ErrDeadline reports a job dropped because its deadline passed
	// before a worker reached it.
	ErrDeadline = errors.New("sched: deadline exceeded")
)

// Config tunes a Scheduler. Executor and Planner are required;
// everything else has serviceable defaults.
type Config struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// Executor runs transfers; required.
	Executor Executor
	// Planner makes route decisions on cache misses; required.
	Planner Planner

	// ProviderCap bounds concurrent transfers per provider (default 4;
	// <= -1 means unlimited).
	ProviderCap int
	// DTNCap bounds concurrent detour transfers per DTN (default 2;
	// <= -1 means unlimited) — the knob that keeps detour nodes from
	// self-congesting under fleet load.
	DTNCap int

	// MaxAttempts bounds executions per job, first try included
	// (default 3).
	MaxAttempts int

	// TenantRate admits jobs per tenant at this sustained rate in
	// jobs/sec (0 = unlimited), from a bucket max(1, TenantRate) deep.
	TenantRate float64

	// CacheTTL is the route-cache entry lifetime in scheduler-clock
	// seconds (default 300); a failed detour stays benched as long.
	CacheTTL float64

	// Reroute enables make-before-break rerouting when the Executor
	// implements ReroutingExecutor: an attempt whose path is withdrawn
	// mid-transfer re-establishes on a surviving route inside the attempt
	// instead of failing back to the retry loop, and parks (holding its
	// checkpoint) when no route exists at all. ParkBudget caps the total
	// parked seconds per attempt (default 90).
	Reroute    bool
	ParkBudget float64

	// --- Overload control (off by default) ---

	// QueueLimit bounds total queue occupancy: Submit rejects with
	// ErrQueueFull once this many jobs wait. 0 = unbounded. A positive
	// limit is the overload stack's one switch: it also turns on
	// deficit-round-robin draining across each priority level's tenants
	// (drrQuantum), so a bursty tenant cannot starve its peers; hedged
	// transfers on a HedgedExecutor (a detour attempt that outlives its
	// route's learned p95 races a direct hedge, see hedgeBudget); and
	// brownout above brownoutEnter occupancy, which sheds optional work
	// — bandit and cache refresh, detour planning for files under ~4 MB,
	// hedging — before jobs.
	QueueLimit int
	// TenantQueueLimit bounds one tenant's share of the queue; a Submit
	// past it rejects with ErrTenantQuota (which errors.Is-matches
	// ErrQueueFull). 0 = unbounded.
	TenantQueueLimit int
	// CoDelTarget enables CoDel-style shedding: when the EWMA (smoothing
	// factor 0.3) of time-in-queue exceeds this many seconds, jobs whose
	// own delay also exceeds it are dropped at dequeue with a *ShedError
	// (retry-after). 0 disables shedding.
	CoDelTarget float64

	// Capacity, when set, arms spill-aware placement: detour routes
	// through DTNs whose staging headroom sits below a 64 MB floor are
	// down-weighted in route election (not excluded — a nearly-full
	// DTN still serves small jobs), composing multiplicatively with
	// the health layer's probation weights. nil turns it off.
	Capacity CapacityOracle

	// Health, when set, arms the gray-failure layer: stall watchdogs on
	// supporting executors (aborted transfers surface core.ErrStall and
	// fail over without burning an attempt), outlier ejection feeding the
	// route cache's bandit weights (probation routes are down-weighted,
	// not excluded, and re-admitted by canary transfers), and
	// per-provider retry budgets (exhaustion parks the job with a
	// *BudgetError). nil turns all of it off — the ablation arm.
	Health *health.Tracker

	// Journal, when set, makes the control plane crash-consistent:
	// submissions, attempt starts, checkpoint watermarks, cap and
	// retry-token spends, and finishes are written ahead to the journal,
	// and a scheduler restarted on the same device replays them — jobs
	// with finish records are not re-run, in-flight jobs resume from
	// their journaled checkpoints under their original attempt IDs. The
	// journal is also the crash injector: when an armed crash point
	// fires, the scheduler is "killed" — Drain wakes, workers unwind,
	// results after the kill carry ErrCrashKilled. nil turns all of it
	// off.
	Journal *ControlJournal

	// Now is the scheduler clock in seconds (default: monotonic wall
	// time since New). Tests inject fake clocks here.
	Now func() float64
	// Sleep pauses a worker for backoff (default time.Sleep). Tests
	// inject no-ops or recorders here.
	Sleep func(seconds float64)
	// OnResult, when set, receives every terminal Result. It is called
	// from worker goroutines, outside scheduler locks.
	OnResult func(Result)

	// Telemetry, when set, is the metrics registry the scheduler reports
	// into: job outcomes, queue occupancy, retry/reroute/park/spill
	// counters, queue-delay and transfer-time histograms, and per-route
	// byte totals. Stats is a view of these same handles, so the two
	// never disagree. nil keeps them in a private registry that is
	// never exported.
	Telemetry *telemetry.Registry
	// Recorder, when set, keeps a per-job flight-recorder trace of every
	// control-plane decision (election, attempts, failure classes,
	// failovers, reroutes, parks) — retained in full when the job fails,
	// truncated to a count when it succeeds. nil disables recording.
	Recorder *telemetry.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Executor == nil || c.Planner == nil {
		panic("sched: Config needs an Executor and a Planner")
	}
	if c.ProviderCap == 0 {
		c.ProviderCap = 4
	}
	if c.DTNCap == 0 {
		c.DTNCap = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 300
	}
	if c.ParkBudget <= 0 {
		c.ParkBudget = 90
	}
	if c.Now == nil {
		start := time.Now()
		c.Now = func() float64 { return time.Since(start).Seconds() }
	}
	if c.Sleep == nil {
		c.Sleep = func(sec float64) { time.Sleep(time.Duration(sec * float64(time.Second))) }
	}
	return c
}

// Fixed tunables: the defaults no caller has needed to change.
const (
	// detourFailLimit is how many untyped detour failures a job
	// tolerates before the cached detour is invalidated and the job
	// falls back to direct.
	detourFailLimit = 2
	// breakerThreshold consecutive route-level failures open a route's
	// circuit breaker; it rejects traffic for breakerCooldown
	// scheduler-clock seconds before admitting a half-open probe.
	breakerThreshold = 3
	breakerCooldown  = 30
	// multipathMaxPaths caps the routes a JobMultipath job stripes across
	// (direct plus detours) when the job sets no MaxPaths;
	// multipathChunk is the stripe unit in bytes.
	multipathMaxPaths = 3
	multipathChunk    = core.DefaultResumeChunk
	// codelAlpha is the smoothing factor of CoDel's queue-delay EWMA.
	codelAlpha = 0.3
	// drrQuantum is the fair queue's per-visit deficit refill in bytes.
	drrQuantum = 1e6
	// hedgeMinSamples is how many completed transfers a route needs
	// before hedging trusts its latency distribution.
	hedgeMinSamples = 4
	// hedgePercentile is the per-route latency percentile that prices a
	// hedge budget.
	hedgePercentile = 0.95
	// hedgeMaxFrac caps launched hedges as a fraction of submitted jobs,
	// so hedging cannot amplify overload.
	hedgeMaxFrac = 0.1
	// brownoutEnter is the queue occupancy, as a fraction of QueueLimit,
	// that enters brownout; it exits at half of it.
	brownoutEnter = 0.8
	// brownoutSmallBucket: during brownout, jobs in size buckets ≤ this
	// (files under ~4 MB) skip detour planning and go direct.
	brownoutSmallBucket = 1
	// capacityFloor is the staging headroom (bytes) below which a DTN is
	// under storage pressure.
	capacityFloor = 64e6
)

// planCall coalesces concurrent cache misses on one key so a probe is
// paid once per key, not once per in-flight job.
type planCall struct {
	done  chan struct{}
	route core.Route
}

// Scheduler is the control plane. Create with New, arm with Start,
// feed with Submit, and wait with Drain; Close shuts the pool down.
type Scheduler struct {
	cfg      Config
	q        *jobQueue
	cache    *RouteCache
	caps     *capTable
	buckets  *tenantBuckets
	breakers *breakerSet
	codel    *codel // nil when shedding is off
	wg       sync.WaitGroup

	planMu   sync.Mutex
	planning map[CacheKey]*planCall

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// crashKilled mirrors the journal's kill switch under s.mu so Drain
	// can wake on it.
	crashKilled bool
	// delivering counts finished results not yet handed to OnResult:
	// Drain waits for them too.
	delivering int
	// Occupancy, the brownout state, the latency and queue-delay rings
	// and the jitter RNG, all guarded by mu. mu guards no count: every
	// count lives in met.
	pending, running int64
	brown            *brownout // nil when brownout is off
	lat              *latencyTracker
	delays           *sampleRing
	jitterRng        *rand.Rand

	// met holds the registry handles — Config.Telemetry's, or a private
	// registry's — and is the only copy of every count; rec is the
	// flight recorder (nil when recording is off). Both are set once in
	// New and read without locks on hot paths.
	met *schedMetrics
	rec *telemetry.FlightRecorder
}

// New builds a scheduler; call Start before submitting.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg: cfg,
		q: newJobQueue(queueOpts{
			limit:       cfg.QueueLimit,
			tenantLimit: cfg.TenantQueueLimit,
			fair:        cfg.QueueLimit > 0,
			now:         cfg.Now,
		}),
		caps:     newCapTable(cfg.ProviderCap, cfg.DTNCap),
		buckets:  newTenantBuckets(cfg.TenantRate, max(1, cfg.TenantRate), cfg.Now),
		codel:    newCodel(cfg.CoDelTarget, codelAlpha),
		planning: make(map[CacheKey]*planCall),
		lat:      newLatencyTracker(),
		delays:   newSampleRing(delayWindow),
		met:      newSchedMetrics(cfg.Telemetry),
		rec:      cfg.Recorder,
	}
	// The backoff jitter's stream is seeded by the first draw of a fixed
	// source.
	s.jitterRng = rand.New(rand.NewSource(rand.New(rand.NewSource(1)).Int63()))
	if cfg.QueueLimit > 0 {
		s.brown = newBrownout(brownoutEnter)
	}
	s.cache = NewRouteCache(cfg.CacheTTL, cfg.CacheTTL, cfg.Now)
	s.breakers = newBreakerSet(breakerThreshold, breakerCooldown, cfg.Now)
	if cfg.Health != nil || cfg.Capacity != nil {
		// Probation down-weights the bandit's view of a route instead of
		// hard-excluding it: traffic trickles, canaries decide re-admission.
		// Capacity pressure composes multiplicatively: a gray DTN that is
		// also nearly full is doubly unattractive.
		s.cache.SetWeight(func(r core.Route) float64 {
			w := 1.0
			if cfg.Health != nil {
				w = cfg.Health.Weight(health.ClassRoute, r.String())
			}
			return w * s.capacityWeight(r)
		})
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Journal != nil {
		// A fired crash point must wake Drain: the fleet is not finishing.
		cfg.Journal.OnKill(func() {
			s.mu.Lock()
			s.crashKilled = true
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		if cfg.Health != nil {
			// A journal forced into in-memory mode is a silent durability
			// loss; surface it once through the health transitions log
			// instead of letting it hide until the next crash.
			cfg.Journal.OnDegraded(func() {
				cfg.Health.NoteWarning("journal", "control",
					"device full after compaction; folding records in memory only")
			})
		}
	}
	return s
}

// Weight multipliers for DTNs under storage pressure: below the floor
// the route is nearly benched (a trickle still probes recovery, like
// probation); inside 2x the floor it is merely discouraged.
const (
	capWeightCritical = 0.05
	capWeightLow      = 0.5
)

// capacityWeight is the spill-aware placement term of route election:
// 1 for direct routes, unknown DTNs, and unbounded disks; discounted
// as a DTN's staging headroom approaches (and crosses) the floor.
func (s *Scheduler) capacityWeight(r core.Route) float64 {
	o := s.cfg.Capacity
	if o == nil || r.Kind != core.Detour {
		return 1
	}
	h := o.DTNHeadroom(r.Via)
	switch {
	case h <= capacityFloor:
		return capWeightCritical
	case h <= 2*capacityFloor:
		return capWeightLow
	}
	return 1
}

// crashed reports whether the control plane's journal has fired an
// armed crash point — the process is "dead" and workers just unwind.
func (s *Scheduler) crashed() bool {
	return s.cfg.Journal != nil && s.cfg.Journal.Killed()
}

// Cache exposes the scheduler's route cache (read-mostly; for
// inspection and tests).
func (s *Scheduler) Cache() *RouteCache { return s.cache }

// RouteEvent feeds one routing-plane event (withdraw or announce) into
// the control plane. It is the push half of route invalidation: wire it
// to a bgppol.Bus subscription and cached decisions whose stored paths
// cross the withdrawn session flip to Converging immediately — the next
// lookup re-elects — instead of serving a blackholed route until TTL.
// An announce clears both Converging and Quarantined holds, so a
// restored link returns to service at once. Safe for concurrent use.
func (s *Scheduler) RouteEvent(ev RouteEvent) {
	s.met.routeEvents.Inc()
	s.cache.ApplyRouteEvent(ev)
}

// Start launches the worker pool. It may be called once.
func (s *Scheduler) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Submit admits one job without blocking. It returns ErrRateLimited if
// the tenant's bucket is empty, ErrQueueFull / ErrTenantQuota when the
// bounded queue is at capacity (backpressure — resubmit later), ErrClosed
// after Close, and a validation error for malformed jobs; otherwise the
// job is queued and will produce exactly one Result.
func (s *Scheduler) Submit(j Job) error {
	if j.Tenant == "" || j.Client == "" || j.Provider == "" || j.Name == "" {
		return fmt.Errorf("sched: job needs tenant, client, provider, and name: %+v", j)
	}
	if j.Size <= 0 {
		return fmt.Errorf("sched: job %q has non-positive size", j.Name)
	}
	if field := invalidUTF8Field(j); field != "" {
		return fmt.Errorf("sched: job %q has a %s that is not valid UTF-8", j.Name, field)
	}
	allowed := s.buckets.allow(j.Tenant)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if !allowed {
		s.mu.Unlock()
		s.met.rejected.With("rate-limited").Inc()
		return ErrRateLimited
	}
	s.pending++
	s.mu.Unlock()

	// The push may sweep dead jobs out of a full queue to make room;
	// those expirations are terminal results we must deliver.
	expired, err := s.q.push(j, s.cfg.Now())
	s.mu.Lock()
	if err != nil {
		s.pending--
		s.wakeIfIdleLocked()
	}
	s.noteDepthLocked()
	s.mu.Unlock()
	switch {
	case err == nil:
		s.met.submitted.Inc()
	case errors.Is(err, ErrTenantQuota):
		s.met.rejected.With("tenant-quota").Inc()
	case errors.Is(err, ErrQueueFull):
		s.met.rejected.With("queue-full").Inc()
	}
	if err == nil && s.cfg.Journal != nil {
		// Write-ahead: the job is durable before any worker touches it. A
		// resubmission of a journaled name reuses its sequence number (and
		// therefore its idempotent attempt ID).
		s.cfg.Journal.NoteSubmit(j)
	}
	s.expireQueued(expired)
	s.noteQueueDepth()
	return err
}

// invalidUTF8Field names the first job string that is not valid UTF-8,
// or returns "". The control journal encodes jobs as JSON, which turns
// invalid bytes into U+FFFD: such a job would be journaled under a name
// that no later record of it matches.
func invalidUTF8Field(j Job) string {
	for _, f := range [...]struct{ name, v string }{
		{"tenant", j.Tenant}, {"client", j.Client}, {"provider", j.Provider},
		{"name", j.Name}, {"MD5", j.MD5},
	} {
		if !utf8.ValidString(f.v) {
			return f.name
		}
	}
	for _, p := range j.AltProviders {
		if !utf8.ValidString(p) {
			return "alternate provider"
		}
	}
	return ""
}

// expireQueued finishes jobs a queue sweep expired in place: their
// deadline passed while they waited, so they terminate with ErrDeadline
// without ever reaching a worker.
func (s *Scheduler) expireQueued(items []queued) {
	if len(items) == 0 {
		return
	}
	now := s.cfg.Now()
	for _, it := range items {
		s.finish(Result{Job: it.job, QueueDelay: now - it.enq, Err: ErrDeadline})
	}
}

// noteQueueDepth feeds queue utilization through the brownout state
// machine.
func (s *Scheduler) noteQueueDepth() {
	if s.brown == nil {
		return
	}
	util := float64(s.q.length()) / float64(s.cfg.QueueLimit)
	s.mu.Lock()
	was := s.brown.active
	now := s.brown.observe(util)
	s.mu.Unlock()
	switch {
	case now && !was:
		s.met.brownoutEnters.Inc()
	case was && !now:
		s.met.brownoutExits.Inc()
	}
}

// brownoutActive reports whether the scheduler is currently shedding
// optional work.
func (s *Scheduler) brownoutActive() bool {
	if s.brown == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brown.active
}

// Drain blocks until every admitted job has reached a terminal state.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for (s.pending > 0 || s.delivering > 0) && !s.closed && !s.crashKilled {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close stops the pool: workers finish their current job and exit, and
// jobs still queued fail with ErrClosed. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.q.close()
	s.caps.close()
	s.wg.Wait()
	// Fail whatever never reached a worker.
	for {
		j, ok := s.q.tryPop()
		if !ok {
			break
		}
		s.finish(Result{Job: j, Err: ErrClosed})
	}
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		it, expired, ok := s.q.pop()
		s.expireQueued(expired)
		if !ok {
			return
		}
		if it == nil {
			// The sweep emptied the queue; nothing runnable this round.
			continue
		}
		delay := s.cfg.Now() - it.enq
		if s.codel != nil {
			if shed, after := s.codel.onDequeue(delay); shed {
				s.finish(Result{Job: it.job, QueueDelay: delay, Err: &ShedError{RetryAfter: after}})
				s.noteQueueDepth()
				continue
			}
		}
		s.mu.Lock()
		s.running++
		s.delays.note(delay)
		s.noteDepthLocked()
		s.mu.Unlock()
		s.noteQueueDepth()
		res := s.runJob(it.job)
		res.QueueDelay = delay
		if it.job.Mode == JobMultipath && res.Multipath == nil {
			res.Degraded = true
		}
		s.finish(res)
		if s.crashed() {
			// The crash point fired: this worker is part of the dead
			// process. Finish the bookkeeping for the current result (above)
			// and unwind without touching the queue again.
			return
		}
	}
}

// finish records a terminal result, hands it to OnResult, and wakes
// Drain if it left the scheduler idle.
func (s *Scheduler) finish(res Result) {
	if res.Err == nil && res.Job.Deadline > 0 && s.cfg.Now() > res.Job.Deadline {
		res.Late = true
	}
	if s.cfg.Journal != nil && !errors.Is(res.Err, ErrCrashKilled) {
		// Journal the terminal record before it becomes observable. This
		// is the before-finish crash window: the provider may have
		// committed but the journal hasn't — recovery resolves it via the
		// idempotent attempt ID and the provider pre-check.
		s.cfg.Journal.NoteFinish(&res)
	}
	m := s.met
	m.queueDelay.Observe(res.QueueDelay)
	m.attempts.Observe(float64(res.Attempts))
	switch {
	case res.Err == nil:
		m.done.Inc()
		if res.Late {
			m.late.Inc()
		}
		m.transferSec.Observe(res.Seconds)
		m.noteDelivered(res.Route, res.Job.Size, res.Seconds)
	case errors.Is(res.Err, ErrShed):
		m.shed.Inc()
	case errors.Is(res.Err, ErrDeadline):
		m.expired.Inc()
	default:
		m.failed.Inc()
	}
	s.mu.Lock()
	s.pending--
	s.delivering++
	if s.running > 0 {
		s.running--
	}
	if res.Err == nil {
		s.lat.note(res.Route, res.Seconds, res.Job.Size)
	}
	s.noteDepthLocked()
	s.mu.Unlock()
	s.recordTerminal(res)
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(res)
	}
	s.mu.Lock()
	s.delivering--
	s.wakeIfIdleLocked()
	s.mu.Unlock()
}

// wakeIfIdleLocked wakes Drain when the scheduler has just been left
// idle: nothing admitted is unfinished and no result awaits OnResult.
// Only then can a wake end Drain's wait, so a busy fleet does not wake
// it once per job; Close and the journal's kill hook broadcast on their
// own. Caller holds s.mu.
func (s *Scheduler) wakeIfIdleLocked() {
	if s.pending == 0 && s.delivering == 0 {
		s.cond.Broadcast()
	}
}

// runJob is a worker's whole handling of one job: route decision
// (breaker-gated), capped execution, class-aware retry with backoff,
// and failover that carries the job's checkpoint across routes.
func (s *Scheduler) runJob(j Job) Result {
	// One flight-recorder handle for the job's whole life: notes against
	// it touch only the handle, and finish hands it back for retention.
	// The zero Trace when recording is off.
	tr := s.rec.Begin()
	res := s.runJobTraced(j, tr)
	res.tr = tr
	return res
}

func (s *Scheduler) runJobTraced(j Job, tr telemetry.Trace) Result {
	if s.crashed() {
		return Result{Job: j, Err: ErrCrashKilled}
	}
	if j.Deadline > 0 && s.cfg.Now() > j.Deadline {
		return Result{Job: j, Err: ErrDeadline}
	}
	key := KeyFor(j.Client, j.Provider, j.Size)
	route, hit := s.routeFor(key, j)
	route = s.gateRoute(key, j.Provider, route)
	if s.cfg.Health != nil {
		if cr, ok := s.canaryRoute(key, route); ok {
			// A probation route is owed a canary: this job probes it at
			// trickle rate: the bandit seldom elects a down-weighted route,
			// so re-admission would otherwise wait on every other route
			// scoring worse.
			route = cr
			s.met.canaries.Inc()
			tr.Note("job.canary", routeAttr("route", route))
		}
	}
	tr.Note("job.elect", routeAttr("route", route), telemetry.Bool("cache", hit))

	if j.Mode == JobMultipath {
		if res, done := s.runMultipath(j, key, route, hit); done {
			return res
		}
		// Degraded: brownout shed the extra lanes, the executor can't
		// stripe, or the striped attempt failed — run single-path below.
		s.met.mpDegraded.Inc()
		tr.Note("job.mp-degrade")
	}

	// One checkpoint for the job's whole life: every attempt, on any
	// route, resumes from it.
	var ck *core.Checkpoint
	rex, resumable := s.cfg.Executor.(ResumableExecutor)
	if resumable {
		ck = &core.Checkpoint{}
	}

	// Crash recovery: a job the journal saw in flight restores its
	// journaled checkpoint (DTN partial + provider session) and attempt
	// count, and keeps its original idempotent attempt ID — so a commit
	// the dead process already made replays instead of duplicating.
	priorAttempts := 0
	cj := s.cfg.Journal
	if cj != nil {
		precheck := false
		if rec := cj.TakeRecovered(j.Name); rec != nil {
			priorAttempts = rec.PriorAttempts
			if ck != nil && rec.HasCkpt {
				*ck = rec.Checkpoint()
			}
			precheck = true
		} else if cj.RecoveredMode() {
			// A restart prechecks every resubmitted job, not just the ones
			// with journaled attempts: a job whose records were lost past a
			// corrupted byte may still have committed before the crash.
			precheck = true
		}
		if precheck {
			// The before-finish window: the dead process may have committed
			// the object without journaling the finish. Ask the provider
			// before moving a single byte.
			if px, ok := s.cfg.Executor.(PrecheckExecutor); ok {
				if px.Precheck(j) {
					att := priorAttempts
					if att < 1 {
						att = 1
					}
					res := Result{Job: j, Route: core.DirectRoute, Attempts: att, CacheHit: true, Resumed: j.Size}
					if ck != nil {
						res.Rewritten, res.ChunkRepairs = ck.BytesRewritten, ck.ChunkRepairs
					}
					s.met.bytesResumed.Add(j.Size)
					return res
				}
			}
		}
		if ck != nil {
			ck.AttemptID = cj.AttemptID(j.Name)
			// Journal every progress watermark; a mid-transfer crash point
			// (mid-hop1 / mid-hop2) killing here also aborts the transfer
			// cooperatively. Executors that wrap OnProgress themselves chain
			// through this hook.
			// The hook captures a copy of the job, so j itself stays on
			// the stack for every job, journaled or not.
			jc := j
			prev := ck.OnProgress
			ck.OnProgress = func(b float64) {
				cj.NoteCkpt(jc, ck, b)
				if prev != nil {
					prev(b)
				}
			}
		}
	}

	var lastErr error
	attempts, detourFails, stallReroutes := priorAttempts, 0, 0
	// res accumulates the hedge, reroute and park tallies across
	// attempts; end completes it for a terminal exit.
	var res Result
	end := func(attempts int, sec float64, err error) Result {
		res.Job, res.Route, res.Seconds, res.Attempts, res.CacheHit, res.Err = j, route, sec, attempts, hit, err
		s.noteRecovery(ck, &res)
		return res
	}
	// Quota-mitigation state: reclaim runs at most once per provider per
	// job; spilledFrom remembers providers already abandoned as full so
	// the spill chain never revisits one.
	var reclaimTried, spilledFrom map[string]bool
	for {
		attempts++
		tr.Note("job.attempt", telemetry.Int("n", attempts), routeAttr("route", route))
		if cj != nil && cj.NoteAttempt(j, attempts, route) {
			return Result{Job: j, Route: route, Attempts: attempts, CacheHit: hit, Err: ErrCrashKilled}
		}
		var sec float64
		var err error
		if !s.breakers.allow(providerKey(j.Provider)) {
			// The provider itself is benched: don't burn a transfer on it,
			// just wait out the cooldown like any other failed attempt.
			err = ProviderDown(fmt.Errorf("breaker open for provider %s", j.Provider))
		} else {
			if cerr := s.caps.acquire(j.Provider, route.Via); cerr != nil {
				return end(attempts-1, 0, cerr)
			}
			// A winning hedge swaps route below; release what was acquired.
			acquiredVia := route.Via
			if cj != nil {
				cj.NoteCap(j.Provider, acquiredVia, true)
			}
			ran := false
			if hx, canHedge := s.cfg.Executor.(HedgedExecutor); canHedge && s.cfg.QueueLimit > 0 && route.Kind == core.Detour && ck != nil {
				if budget, ok := s.hedgeBudget(route, j.Size); ok {
					var winner core.Route
					var launched, won bool
					sec, winner, launched, won, err = hx.ExecuteHedged(j, route, budget, ck)
					if launched {
						res.Hedged = true
						s.met.hedges.Inc()
						if won {
							s.met.hedgeWins.Inc()
						}
						if won {
							tr.Note("job.hedge", telemetry.Bool("won", true), routeAttr("route", winner))
						} else {
							tr.Note("job.hedge", telemetry.Bool("won", false))
						}
					}
					if won {
						res.HedgeWon = true
						route = winner
					}
					ran = true
				}
			}
			if !ran {
				if rrx, canReroute := s.cfg.Executor.(ReroutingExecutor); canReroute && s.cfg.Reroute && ck != nil {
					// Churn-hardened attempt: the executor survives
					// withdraws internally (make-before-break) and may
					// finish on a different route than it started.
					var final core.Route
					var nr int
					var parked float64
					sec, final, nr, parked, err = rrx.ExecuteRerouting(j, route, ck, s.cfg.ParkBudget)
					res.Reroutes += nr
					res.Parked += parked
					if nr > 0 || parked > 0 {
						s.met.reroutes.Add(float64(nr))
						if parked > 0 {
							s.met.parks.Inc()
							s.met.parkSeconds.Add(parked)
						}
						tr.Note("job.reroute", telemetry.Int("n", nr),
							telemetry.Float64("parked_s", parked), routeAttr("route", final))
					}
					route = final
				} else if ck != nil {
					sec, err = rex.ExecuteResumable(j, route, ck)
				} else {
					sec, err = s.cfg.Executor.Execute(j, route)
				}
			}
			s.caps.release(j.Provider, acquiredVia)
			if cj != nil {
				cj.NoteCap(j.Provider, acquiredVia, false)
			}
		}
		if s.crashed() {
			// A mid-transfer crash point aborted this attempt (or the kill
			// landed elsewhere while we ran): the process is dead, whatever
			// err says is moot.
			return Result{Job: j, Route: route, Attempts: attempts, CacheHit: hit, Err: ErrCrashKilled}
		}
		if err == nil {
			s.breakers.success(breakerKey(j.Provider, route))
			s.breakers.success(providerKey(j.Provider))
			s.noteHealthSuccess(j, route, sec)
			if !s.brownoutActive() {
				// Brownout sheds bandit refresh: live observations are
				// optional work, the decision we have is good enough.
				s.cache.Observe(key, route, j.Size, sec)
			}
			return end(attempts, sec, nil)
		}
		lastErr = err
		if errors.Is(err, core.ErrIntegrity) {
			s.met.integrityRetries.Inc()
		}
		if tr.Recording() {
			tr.Note("job.fail", telemetry.String("class", Classify(err).String()),
				telemetry.String("err", err.Error()))
		}

		backoff := true
		switch Classify(err) {
		case FailProviderDown:
			// No route helps a downed provider; record provider health,
			// leave the route cache alone (quarantine is route-level only),
			// and wait it out.
			s.breakers.failure(providerKey(j.Provider))
		case FailTransient:
			// The route is fine; retry it. A checkpointed executor resumes
			// from the DTN partial / provider session instead of restarting.
		case FailStall:
			// Gray failure: the watchdog aborted a transfer that served no
			// errors but crawled below its adaptive floor. Route-down-lite:
			// blame the path softly (probation down-weights it fleet-wide;
			// no quarantine, no breaker), keep the checkpoint, and fail over
			// without burning an attempt slot or sleeping — the stall itself
			// already cost the job its time. A separate reroute cap bounds
			// ping-ponging when every path is gray.
			s.met.stalls.Inc()
			if h := s.cfg.Health; h != nil {
				h.NoteStall(health.ClassRoute, route.String())
				if route.Kind == core.Detour {
					h.NoteStall(health.ClassDTN, route.Via)
				}
			}
			if stallReroutes < maxStallReroutes {
				if next, ok := s.stallFailover(key, route); ok {
					stallReroutes++
					attempts--
					route = next
					backoff = false
					s.met.stallReroutes.Inc()
					tr.Note("job.stall-failover", routeAttr("route", next))
				}
			}
			// No alternate (or the cap is spent): fall through to the
			// normal attempt accounting like a transient failure.
		case FailQuota:
			// Storage exhaustion at the provider account: no route helps
			// and none deserves blame — leave breakers and the route cache
			// alone. Mitigation ladder: (1) reclaim abandoned upload
			// sessions once and, if bytes came back, retry after the
			// provider's hint; (2) spill to an allowed alternate provider,
			// keeping hop-1 staging progress but starting a fresh session;
			// (3) park with a typed *QuotaError.
			s.met.quotaFails.Inc()
			recovered := false
			if !reclaimTried[j.Provider] {
				if reclaimTried == nil {
					reclaimTried = make(map[string]bool)
				}
				reclaimTried[j.Provider] = true
				if qr, ok := s.cfg.Executor.(QuotaReclaimer); ok {
					if freed := qr.ReclaimQuota(j.Provider); freed > 0 {
						s.met.quotaReclaims.Inc()
						tr.Note("job.quota-reclaim", telemetry.String("provider", j.Provider),
							telemetry.Float64("freed", freed))
						recovered = true
					}
				}
			}
			if !recovered {
				if alt, ok := nextAltProvider(j, spilledFrom); ok {
					if spilledFrom == nil {
						spilledFrom = make(map[string]bool)
					}
					spilledFrom[j.Provider] = true
					tr.Note("job.spill", telemetry.String("from", j.Provider), telemetry.String("to", alt))
					j.Provider = alt
					if ck != nil {
						// The old provider's session bytes are stranded
						// behind its full quota; the DTN partial is
						// provider-agnostic and survives the switch.
						ck.DiscardSession()
					}
					key = KeyFor(j.Client, j.Provider, j.Size)
					route, hit = s.routeFor(key, j)
					route = s.gateRoute(key, j.Provider, route)
					// A spill is a new destination, not another try at the
					// full one: don't burn an attempt slot or sleep.
					attempts--
					backoff = false
					recovered = true
					s.met.spills.Inc()
				}
			}
			if !recovered {
				ra := retryAfterHint(lastErr)
				if ra <= 0 {
					ra = defaultQuotaParkAfter
				}
				s.met.quotaParks.Inc()
				tr.Note("job.park", telemetry.String("kind", "quota"),
					telemetry.String("provider", j.Provider), telemetry.Float64("retry_after", ra))
				return end(attempts, 0, &QuotaError{Provider: j.Provider, RetryAfter: ra})
			}
		case FailRouteDown:
			s.breakers.failure(breakerKey(j.Provider, route))
			if next, ok := s.failover(key, j.Provider, route); ok {
				route = next
				// The new route is presumed healthy: no point sleeping.
				backoff = false
				tr.Note("job.failover", routeAttr("route", next))
			}
		default:
			// Untyped error: the legacy route-level handling, so executors
			// that don't classify see exactly the old behavior.
			s.breakers.failure(breakerKey(j.Provider, route))
			if route.Kind == core.Detour {
				detourFails++
				if detourFails >= detourFailLimit {
					// Repeated DTN failures: bench the detour for every
					// follower of this key and fall back to direct ourselves.
					s.cache.Invalidate(key, route)
					route = core.DirectRoute
					s.met.fallbacks.Inc()
					tr.Note("job.fallback")
				}
			}
		}
		if attempts >= s.cfg.MaxAttempts {
			return end(attempts, 0, lastErr)
		}
		if h := s.cfg.Health; backoff && h != nil {
			// Backoff retries spend the provider's retry budget: tokens only
			// successes earn back, so a sick provider's budget drains and the
			// job parks instead of joining a retry storm. Failover reroutes
			// (backoff=false) are free — they move work away from the
			// problem rather than hammering it.
			if ok, after := h.AllowRetry(j.Provider); !ok {
				s.met.budgetParks.Inc()
				tr.Note("job.park", telemetry.String("kind", "budget"),
					telemetry.String("provider", j.Provider), telemetry.Float64("retry_after", after))
				return end(attempts, 0, &BudgetError{Provider: j.Provider, RetryAfter: after})
			}
			if cj != nil {
				// The spent token is journaled so a restart can drain the
				// fresh tracker's budget to the same level
				// (RestoreSpentRetries) — a crash must not refill a sick
				// provider's bucket.
				cj.NoteRetry(j.Provider)
			}
		}
		s.met.retries.Inc()
		if !backoff {
			continue
		}
		s.mu.Lock()
		u := s.jitterRng.Float64()
		s.mu.Unlock()
		delay := retryBackoff.Delay(attempts, u)
		// A provider's Retry-After on a 429 floors the delay: backing
		// off into the same throttle window just burns an attempt.
		if ra := retryAfterHint(lastErr); ra > delay {
			delay = ra
		}
		tr.Note("job.backoff", telemetry.Float64("delay_s", delay))
		s.cfg.Sleep(delay)
	}
}

// maxStallReroutes bounds free stall-driven route switches per job, so
// a fleet where every path is gray cannot trap a job in an unmetered
// reroute loop.
const maxStallReroutes = 3

// maxRetryAfterFloor caps the honored Retry-After hint, matching the
// SDK's own throttle-sleep cap — a buggy or hostile header must not
// stall a worker for minutes.
const maxRetryAfterFloor = 60

// defaultQuotaParkAfter is the park hint on a *QuotaError whose 507
// carried no Retry-After header.
const defaultQuotaParkAfter = 30

// retryAfterHint reads the provider's Retry-After pacing hint that the
// executor recorded on the typed cause of a 429 (throttle) or 507
// (quota) — 0 when there is none. Backoff delays are floored by it:
// retrying into the same throttle or quota window just burns an
// attempt.
func retryAfterHint(err error) float64 {
	var he *hintedError
	if !errors.As(err, &he) || he.retryAfter <= 0 {
		return 0
	}
	if he.retryAfter > maxRetryAfterFloor {
		return maxRetryAfterFloor
	}
	return he.retryAfter
}

// nextAltProvider returns the first allowed spill target the job has
// not already abandoned as full (and is not currently on).
func nextAltProvider(j Job, spilledFrom map[string]bool) (string, bool) {
	for _, alt := range j.AltProviders {
		if alt == "" || alt == j.Provider || spilledFrom[alt] {
			continue
		}
		return alt, true
	}
	return "", false
}

// noteHealthSuccess feeds one completed transfer into the gray-failure
// tracker at all three granularities and refunds the provider's retry
// budget.
func (s *Scheduler) noteHealthSuccess(j Job, route core.Route, sec float64) {
	h := s.cfg.Health
	if h == nil || sec <= 0 {
		return
	}
	if earned := h.NoteSuccess(j.Provider); earned > 0 && s.cfg.Journal != nil {
		// A restart resumes the bucket's level, so what a success earns
		// back is journaled like what a retry spends.
		s.cfg.Journal.NoteRetryEarned(j.Provider, earned)
	}
	h.ObserveTransfer(health.ClassRoute, route.String(), j.Size, sec)
	h.ObserveTransfer(health.ClassProvider, j.Provider, j.Size, sec)
	if route.Kind == core.Detour {
		h.ObserveTransfer(health.ClassDTN, route.Via, j.Size, sec)
	}
}

// canaryRoute redirects a job onto a probation route owed a canary
// probe (at most one per canary interval per entity).
func (s *Scheduler) canaryRoute(key CacheKey, cur core.Route) (core.Route, bool) {
	h := s.cfg.Health
	for _, cand := range s.cache.Candidates(key) {
		if cand == cur {
			continue
		}
		if h.Probation(health.ClassRoute, cand.String()) && h.CanaryTake(health.ClassRoute, cand.String()) {
			return cand, true
		}
	}
	return core.Route{}, false
}

// stallFailover picks the next route for a stalled job. Unlike
// failover it does not quarantine the old route — a stall is a soft
// signal and probation already down-weights the entity fleet-wide;
// hard-benching every gray path would turn the mitigation into an
// outage of its own. Probation routes are skipped as targets (moving a
// stalled job onto a known-gray path helps nobody).
func (s *Scheduler) stallFailover(key CacheKey, stalled core.Route) (core.Route, bool) {
	h := s.cfg.Health
	if stalled.Kind == core.Detour {
		return core.DirectRoute, true
	}
	for _, cand := range s.cache.Candidates(key) {
		if cand.Kind != core.Detour || cand == stalled {
			continue
		}
		if h != nil && h.Probation(health.ClassRoute, cand.String()) {
			continue
		}
		return cand, true
	}
	return core.Route{}, false
}

// hedgeBudget prices a hedged attempt: the primary route's learned
// pXX seconds-per-byte times the job size. It refuses (no hedge) when
// the route's distribution is too thin to trust, when the hedge budget
// cap is spent, or during brownout — hedging is optional work and must
// not amplify overload.
func (s *Scheduler) hedgeBudget(route core.Route, size float64) (float64, bool) {
	s.mu.Lock()
	if s.brown != nil && s.brown.active {
		s.mu.Unlock()
		return 0, false
	}
	if s.lat.count(route) < hedgeMinSamples {
		s.mu.Unlock()
		return 0, false
	}
	spb, ok := s.lat.percentile(route, hedgePercentile)
	s.mu.Unlock()
	if !ok {
		return 0, false
	}
	submitted, hedges := int64(s.met.submitted.Value()), int64(s.met.hedges.Value())
	if submitted < 1 {
		submitted = 1
	}
	if float64(hedges) >= hedgeMaxFrac*float64(submitted) {
		return 0, false
	}
	return spb * size, true
}

// gateRoute diverts a job whose chosen route has an open breaker to an
// alternate whose breaker admits traffic. Breakers are advisory: when
// every alternate is also benched, the original route runs anyway
// rather than stranding the job.
func (s *Scheduler) gateRoute(key CacheKey, provider string, route core.Route) core.Route {
	if s.breakers.allow(breakerKey(provider, route)) {
		return route
	}
	if route.Kind == core.Detour && s.breakers.allow(breakerKey(provider, core.DirectRoute)) {
		s.met.breakerSkips.Inc()
		return core.DirectRoute
	}
	for _, cand := range s.cache.Candidates(key) {
		if cand == route {
			continue
		}
		if s.breakers.allow(breakerKey(provider, cand)) {
			s.met.breakerSkips.Inc()
			return cand
		}
	}
	return route
}

// failover picks the next route for a job whose current route is known
// dead. A dead detour is quarantined fleet-wide and the job drops to
// direct; a dead direct route tries an alternate, breaker-approved
// detour from the key's candidate pool. The caller keeps the job's
// checkpoint, so provider-session progress survives the switch.
func (s *Scheduler) failover(key CacheKey, provider string, failed core.Route) (core.Route, bool) {
	if failed.Kind == core.Detour {
		s.cache.Invalidate(key, failed)
		s.met.failovers.Inc()
		s.met.fallbacks.Inc()
		// Direct is the route of last resort — take it even if its
		// breaker objects.
		s.breakers.allow(breakerKey(provider, core.DirectRoute))
		return core.DirectRoute, true
	}
	for _, cand := range s.cache.Candidates(key) {
		if cand.Kind != core.Detour || cand == failed {
			continue
		}
		if s.breakers.allow(breakerKey(provider, cand)) {
			s.met.failovers.Inc()
			return cand, true
		}
	}
	return failed, false
}

// noteRecovery copies the job's checkpoint accounting into its result
// and the scheduler-wide counters.
func (s *Scheduler) noteRecovery(ck *core.Checkpoint, res *Result) {
	if ck == nil {
		return
	}
	res.Resumed, res.Rewritten = ck.BytesResumed, ck.BytesRewritten
	res.ChunkRepairs = ck.ChunkRepairs
	s.met.bytesResumed.Add(ck.BytesResumed)
	s.met.bytesRewritten.Add(ck.BytesRewritten)
	s.met.chunkRepairs.Add(float64(ck.ChunkRepairs))
}

// routeFor resolves the job's route: cached decision, coalesced onto an
// in-flight probe, or a fresh plan. The bool reports whether the job
// avoided paying a probe.
func (s *Scheduler) routeFor(key CacheKey, j Job) (core.Route, bool) {
	if s.brownoutActive() {
		// Brownout: probes and detour planning are optional work. Small
		// files go straight to direct (their detour gain is marginal);
		// everything else rides a stale cache entry rather than paying a
		// re-probe. Only a key with no decision at all still plans.
		if key.SizeBucket <= brownoutSmallBucket {
			s.met.brownoutDirect.Inc()
			return core.DirectRoute, true
		}
		if r, fresh, ok := s.cache.LookupStale(key); ok {
			if fresh {
				s.met.cacheHits.Inc()
			} else {
				s.met.staleServes.Inc()
			}
			return r, true
		}
	}
	if r, ok := s.cache.Lookup(key); ok {
		s.met.cacheHits.Inc()
		return r, true
	}
	s.planMu.Lock()
	if call, ok := s.planning[key]; ok {
		s.planMu.Unlock()
		<-call.done
		s.met.cacheHits.Inc()
		return call.route, true
	}
	// Re-check under planMu: the planner that just finished may have
	// inserted between our Lookup and the lock.
	if r, ok := s.cache.Lookup(key); ok {
		s.planMu.Unlock()
		s.met.cacheHits.Inc()
		return r, true
	}
	call := &planCall{done: make(chan struct{})}
	s.planning[key] = call
	s.planMu.Unlock()

	route, cands, err := s.cfg.Planner.Plan(j.Client, j.Provider, j.Size)
	if err != nil {
		// A failed probe is not fatal: direct always exists. The entry
		// still caches so the fleet doesn't hammer a broken prober.
		route, cands = core.DirectRoute, nil
	}
	if pp, ok := s.cfg.Planner.(PathAwarePlanner); ok {
		// Store the hops each candidate traverses so routing events can
		// invalidate exactly the affected entries.
		all := append([]core.Route{route}, cands...)
		s.cache.InsertWithPaths(key, route, cands, pp.RoutePaths(j.Client, j.Provider, all))
	} else {
		s.cache.Insert(key, route, cands)
	}
	call.route = route
	close(call.done)

	s.planMu.Lock()
	delete(s.planning, key)
	s.planMu.Unlock()
	s.met.cacheMisses.Inc()
	return route, false
}

// RouteStats aggregates completed transfers over one route.
type RouteStats struct {
	Jobs    int64
	Bytes   float64
	Seconds float64
}

// Throughput is the route's aggregate bytes/sec (0 before any job).
func (r RouteStats) Throughput() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return r.Bytes / r.Seconds
}

// Stats is a snapshot of the control plane and a view of its registry:
// every scheduler count, PerRoute included, is read back from a sched_*
// family, so it equals the exported metric. s.mu guards no count.
type Stats struct {
	Submitted, RateLimited int64
	Queued, Running        int64
	Done, Failed, Expired  int64
	// Shed counts jobs dropped by CoDel queue-delay shedding (distinct
	// from Expired, which counts deadline deaths); Late counts jobs that
	// completed successfully but past their deadline.
	Shed, Late int64
	// QueueFullRejects and TenantQuotaRejects count Submits bounced by
	// the bounded queue and by per-tenant quotas.
	QueueFullRejects, TenantQuotaRejects int64
	// Hedges counts launched direct-route hedges; HedgeWins counts races
	// the hedge won.
	Hedges, HedgeWins int64
	// BrownoutActive is the current brownout state; Entries/Exits count
	// transitions; BrownoutDirect counts small jobs sent direct without
	// planning; StaleServes counts expired cache entries served in lieu
	// of a re-probe.
	BrownoutActive                 bool
	BrownoutEntries, BrownoutExits int64
	BrownoutDirect, StaleServes    int64
	// IntegrityRetries counts attempts failed by a provider-side digest
	// mismatch (corrupted/stale resume detected and retried).
	IntegrityRetries int64
	// Reroutes counts make-before-break route switches performed inside
	// attempts; Parks counts attempts that sat with no usable route, and
	// ParkSeconds their total wait. RouteEvents counts routing-plane
	// events pushed through RouteEvent; RouteConverges and RouteAnnounces
	// are the cache's per-route reactions (entries benched as Converging,
	// holds cleared by an announce).
	Reroutes, Parks                int64
	ParkSeconds                    float64
	RouteEvents                    int64
	RouteConverges, RouteAnnounces int64
	// MultipathJobs counts jobs that ran striped; MultipathDegraded
	// counts JobMultipath jobs that ran single-path instead (brownout,
	// unsupporting executor, or striped-attempt fallback).
	// MultipathHedged and MultipathResent aggregate the striped runs'
	// tail-hedge duplicates and failure re-dispatches;
	// MultipathDuplicateBytes their total duplicated payload.
	MultipathJobs, MultipathDegraded int64
	MultipathHedged, MultipathResent int64
	MultipathDuplicateBytes          float64
	// Stalls counts watchdog-aborted gray transfers; StallReroutes the
	// free failovers they triggered; Canaries the jobs deliberately sent
	// over probation routes to probe re-admission; BudgetParks the jobs
	// parked with *BudgetError because their provider's retry bucket ran
	// dry.
	Stalls, StallReroutes int64
	Canaries, BudgetParks int64
	// QuotaFailures counts attempts that died on provider storage
	// exhaustion (507); QuotaReclaims counts abandoned-session
	// garbage collections that actually freed bytes; ProviderSpills
	// counts jobs moved to an alternate provider after reclaim failed;
	// QuotaParks counts jobs parked with a *QuotaError because every
	// mitigation ran dry.
	QuotaFailures, QuotaReclaims int64
	ProviderSpills, QuotaParks   int64
	// JournalDegraded reports a control journal that fell back to
	// in-memory folding on a full device; JournalENOSPCSaves counts
	// appends rescued by emergency compaction, JournalDropped the
	// records folded in memory only.
	JournalDegraded                    bool
	JournalENOSPCSaves, JournalDropped int64
	// QueueDelayEWMA is the CoDel-smoothed time-in-queue;
	// QueueDelayP99 is the 99th percentile over a trailing window of
	// admitted jobs.
	QueueDelayEWMA     float64
	QueueDelayP99      float64
	Retries, Fallbacks int64
	// Failovers counts mid-job route switches driven by route-down
	// classification; BreakerSkips counts jobs diverted before their
	// first attempt because the chosen route's breaker was open.
	Failovers, BreakerSkips int64
	// BytesResumed and BytesRewritten aggregate checkpoint accounting
	// across all jobs run by a ResumableExecutor.
	BytesResumed   float64
	BytesRewritten float64
	// ChunkRepairs counts manifest chunks re-sent to heal staged-copy
	// corruption (distinct from IntegrityRetries: a repair keeps the
	// transfer, a retry discards it).
	ChunkRepairs int64
	// BreakerTransitions counts lifetime breaker state changes; Breakers
	// is each breaker's current state by "provider|route" key.
	BreakerTransitions      int64
	Breakers                map[string]string
	CacheHits, CacheMisses  int64
	CacheInvalidations      int64
	PerRoute                map[string]RouteStats
	ProviderPeak, DTNPeak   map[string]int
	ProviderInUse, DTNInUse map[string]int
}

// CacheHitRate is hits/(hits+misses), 0 before any lookup.
func (st Stats) CacheHitRate() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// String renders the one-line form the detourd daemon logs.
func (st Stats) String() string {
	line := fmt.Sprintf("queued=%d running=%d done=%d failed=%d expired=%d retries=%d fallbacks=%d rate-limited=%d cache=%.0f%%",
		st.Queued, st.Running, st.Done, st.Failed, st.Expired, st.Retries, st.Fallbacks, st.RateLimited, st.CacheHitRate()*100)
	if st.Shed+st.QueueFullRejects+st.TenantQuotaRejects+st.Hedges > 0 || st.BrownoutActive {
		line += fmt.Sprintf(" shed=%d qfull=%d quota=%d hedges=%d/%d brownout=%v",
			st.Shed, st.QueueFullRejects, st.TenantQuotaRejects, st.HedgeWins, st.Hedges, st.BrownoutActive)
	}
	if st.Stalls+st.Canaries+st.BudgetParks > 0 {
		line += fmt.Sprintf(" stalls=%d stall-reroutes=%d canaries=%d budget-parked=%d",
			st.Stalls, st.StallReroutes, st.Canaries, st.BudgetParks)
	}
	if st.QuotaFailures+st.QuotaReclaims+st.ProviderSpills+st.QuotaParks > 0 {
		line += fmt.Sprintf(" quota-fails=%d reclaims=%d spills=%d quota-parked=%d",
			st.QuotaFailures, st.QuotaReclaims, st.ProviderSpills, st.QuotaParks)
	}
	if st.JournalDegraded || st.JournalENOSPCSaves > 0 {
		line += fmt.Sprintf(" journal-degraded=%v enospc-saves=%d dropped=%d",
			st.JournalDegraded, st.JournalENOSPCSaves, st.JournalDropped)
	}
	return line
}

// Stats returns a snapshot of the counts, per-route aggregates, and
// the concurrency high-water marks the caps enforce. Rejections are
// read with Family.Get, which creates no label child for an unseen
// reason.
func (s *Scheduler) Stats() Stats {
	m := s.met
	n := func(c *telemetry.Metric) int64 { return int64(c.Value()) }
	st := Stats{
		Submitted: n(m.submitted), RateLimited: n(m.rejected.Get("rate-limited")),
		Done: n(m.done), Failed: n(m.failed), Expired: n(m.expired), Shed: n(m.shed), Late: n(m.late),
		QueueFullRejects:   n(m.rejected.Get("queue-full")),
		TenantQuotaRejects: n(m.rejected.Get("tenant-quota")),
		Hedges:             n(m.hedges), HedgeWins: n(m.hedgeWins),
		BrownoutEntries: n(m.brownoutEnters), BrownoutExits: n(m.brownoutExits),
		BrownoutDirect: n(m.brownoutDirect), StaleServes: n(m.staleServes),
		IntegrityRetries: n(m.integrityRetries), Reroutes: n(m.reroutes), Parks: n(m.parks),
		ParkSeconds: m.parkSeconds.Value(), RouteEvents: n(m.routeEvents),
		MultipathJobs: n(m.mpJobs), MultipathDegraded: n(m.mpDegraded),
		MultipathHedged: n(m.mpHedged), MultipathResent: n(m.mpResent),
		MultipathDuplicateBytes: m.mpDuplicateBytes.Value(),
		Stalls:                  n(m.stalls), StallReroutes: n(m.stallReroutes),
		Canaries: n(m.canaries), BudgetParks: n(m.budgetParks),
		QuotaFailures: n(m.quotaFails), QuotaReclaims: n(m.quotaReclaims),
		ProviderSpills: n(m.spills), QuotaParks: n(m.quotaParks),
		Retries: n(m.retries), Fallbacks: n(m.fallbacks),
		Failovers: n(m.failovers), BreakerSkips: n(m.breakerSkips),
		BytesResumed: m.bytesResumed.Value(), BytesRewritten: m.bytesRewritten.Value(),
		ChunkRepairs: n(m.chunkRepairs), CacheHits: n(m.cacheHits), CacheMisses: n(m.cacheMisses),
		PerRoute: m.perRoute(),
	}
	s.mu.Lock()
	st.Running = s.running
	st.Queued = s.pending - s.running
	st.BrownoutActive = s.brown != nil && s.brown.active
	st.QueueDelayP99 = s.delays.percentile(0.99)
	s.mu.Unlock()
	if s.codel != nil {
		st.QueueDelayEWMA = s.codel.smoothed()
	}
	if cj := s.cfg.Journal; cj != nil {
		st.JournalDegraded = cj.Degraded()
		st.JournalENOSPCSaves = int64(cj.ENOSPCSaves())
		st.JournalDropped = int64(cj.DroppedAppends())
	}
	st.Breakers, st.BreakerTransitions = s.breakers.snapshot()
	st.CacheInvalidations, st.RouteConverges, st.RouteAnnounces = s.cache.Counters()
	st.ProviderInUse, st.ProviderPeak, st.DTNInUse, st.DTNPeak = s.caps.snapshot()
	return st
}
