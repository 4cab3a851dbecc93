// Package health is the passive gray-failure detection and mitigation
// layer. Every other robustness mechanism in the scheduler keys off
// hard errors — connection resets, 5xx bursts, withdrawn routes. Gray
// failures produce none of those: a DTN with a dying disk or a provider
// silently throttling one peering point serves 200s forever, just
// slowly, and an error-driven control plane never routes around it.
//
// The tracker watches the only signal a gray failure cannot hide:
// throughput. It keeps per-entity baselines (EWMA + a recent-sample
// window, via internal/stats) at three granularities — route, DTN,
// provider — and drives three mitigations off them:
//
//   - Stall budgets: an adaptive per-transfer time budget derived from
//     the route's learned baseline. The executor's watchdog aborts (with
//     checkpoint intact) any transfer that exceeds its budget or makes
//     no byte progress for a grace window, surfacing core.ErrStall.
//   - Outlier ejection: an entity whose observed rate sits below a
//     fraction of its peers' median baseline for a sustained streak is
//     ejected into probation — distinct from a breaker opening: the
//     entity stays selectable at a trickle weight, and periodic canary
//     transfers decide re-admission instead of a fixed cooldown.
//   - Retry budgets: a per-provider token bucket where retries spend
//     tokens that only successes earn back, so a retry storm cannot
//     amplify a brownout into a metastable failure. An exhausted budget
//     parks the job with a typed error and a RetryAfter hint.
//
// All state is guarded by one mutex; methods are safe for concurrent
// workers. Time comes from the injected Now (the scheduler passes the
// virtual clock), so replays are deterministic.
package health

import (
	"fmt"
	"sort"
	"sync"

	"detournet/internal/stats"
	"detournet/internal/tracelog"
)

// Entity classes the scheduler observes. Peer comparison happens within
// a class: routes to one provider compare against each other, DTNs
// against DTNs, providers against providers.
const (
	ClassRoute    = "route"
	ClassDTN      = "dtn"
	ClassProvider = "provider"
)

// The tracker's constants. Budgets and intervals are in seconds of the
// injected clock, rates in bytes/sec.
const (
	// alpha is the EWMA smoothing factor for baselines, matching the
	// bandit's.
	alpha float64 = 0.3
	// window is how many recent rate samples each entity keeps for
	// quantile queries.
	window = 16

	// floorFrac sets the adaptive stall floor: a transfer's budget is
	// the time it would take running at floorFrac of the route baseline
	// (four times the expected duration).
	floorFrac float64 = 0.25
	// grace is added to every budget to absorb session setup, token
	// refresh, and backoff sleeps.
	grace float64 = 30
	// minBudget is the smallest budget ever issued, so tiny files on
	// fast baselines don't get hair-trigger watchdogs.
	minBudget float64 = 90
	// defaultBudget is issued when no baseline exists yet — first
	// transfers must be allowed to be slow.
	defaultBudget float64 = 600
	// NoProgressGrace aborts a transfer whose live byte watermark has
	// not advanced for this long — generous because a detour's second
	// hop only refreshes its watermark at each relay poll.
	NoProgressGrace float64 = 60
	// CheckInterval is the watchdog poll period.
	CheckInterval float64 = 5

	// outlierFrac: an observation below outlierFrac × the peer median
	// baseline is an outlier.
	outlierFrac float64 = 0.4
	// outlierStreak consecutive outlier observations eject the entity
	// into probation.
	outlierStreak = 3
	// minPeers is how many peer baselines (besides the entity itself)
	// must exist before outlier judgment is attempted.
	minPeers = 1
	// probationWeight is the selection-weight multiplier for entities
	// on probation — down-weighted, not excluded.
	probationWeight float64 = 0.1
	// canaryInterval rate-limits deliberate probation probes: at most
	// one canary transfer per entity per interval. Jobs run tens of
	// seconds, so 60 s (doubling per miss) probes a probationary route
	// often enough to re-admit it promptly once a fault window closes,
	// without flooding it while the window is open.
	canaryInterval float64 = 60
	// canarySuccesses consecutive healthy observations while on
	// probation re-admit the entity.
	canarySuccesses = 2

	// retryBurst is the per-provider retry token bucket capacity, and
	// the initial fill.
	retryBurst float64 = 8
	// retryEarn is the tokens a completed transfer earns back for its
	// provider — two successes fund one retry.
	retryEarn float64 = 0.5
	// retryAfter is the park hint handed out when a budget is
	// exhausted.
	retryAfter float64 = 30
)

// Options wire the tracker to its clock and its trace.
type Options struct {
	// Now supplies the clock (required; the scheduler passes the
	// virtual clock so replays are deterministic).
	Now func() float64
	// Trace receives health.* transition events; nil is safe.
	Trace *tracelog.Log
}

// entity is one tracked route/DTN/provider.
type entity struct {
	class, name string
	base        *stats.EWMA
	recent      []float64 // last window observed rates
	streak      int       // consecutive outlier observations
	probation   bool
	since       float64 // when probation began
	lastCanary  float64
	canaryOK    int
	canaryMiss  int // consecutive failed canaries (backs off the next)
	obs         int
	stalls      int
}

// bucket is one provider's retry token bucket.
type bucket struct {
	tokens float64
	spent  int
	denied int
}

// Tracker is the shared health state. Construct with New.
type Tracker struct {
	opt Options

	mu          sync.Mutex
	entities    map[string]*entity // key: class + "|" + name
	buckets     map[string]*bucket // key: provider
	transitions []string
}

// New returns a tracker. Options.Now is required.
func New(opt Options) *Tracker {
	if opt.Now == nil {
		panic("health: Options.Now is required")
	}
	return &Tracker{
		opt:      opt,
		entities: make(map[string]*entity),
		buckets:  make(map[string]*bucket),
	}
}

func key(class, name string) string { return class + "|" + name }

// get returns (creating if needed) the entity record. Callers hold t.mu.
func (t *Tracker) get(class, name string) *entity {
	k := key(class, name)
	e, ok := t.entities[k]
	if !ok {
		e = &entity{class: class, name: name, base: stats.NewEWMA(alpha)}
		t.entities[k] = e
	}
	return e
}

// peerMedian returns the median baseline of e's class peers (excluding
// e itself) and whether enough peers exist to judge. Callers hold t.mu.
func (t *Tracker) peerMedian(e *entity) (float64, bool) {
	var peers []float64
	for _, o := range t.entities {
		if o.class == e.class && o.name != e.name && o.base.Count() > 0 {
			peers = append(peers, o.base.Value())
		}
	}
	if len(peers) < minPeers {
		return 0, false
	}
	return stats.Median(peers), true
}

// ObserveTransfer folds one completed transfer into an entity's
// baseline and runs the outlier/probation state machine on it.
func (t *Tracker) ObserveTransfer(class, name string, bytes, seconds float64) {
	if seconds <= 0 || bytes <= 0 {
		return
	}
	rate := bytes / seconds
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.get(class, name)
	e.obs++
	e.recent = append(e.recent, rate)
	if len(e.recent) > window {
		e.recent = e.recent[len(e.recent)-window:]
	}
	med, ok := t.peerMedian(e)
	outlier := ok && rate < outlierFrac*med
	// A probation entity's baseline keeps learning (that is how
	// recovery shows), and so does a healthy one's; but a healthy
	// entity's baseline should not be dragged down by the very outlier
	// observations the ejection logic is counting — a gray entity would
	// lower its own bar until it looks normal again. Outliers feed the
	// streak, not the baseline.
	if !outlier || e.probation {
		e.base.Observe(rate)
	}
	t.judgeLocked(e, outlier)
}

// NoteStall records a watchdog abort against an entity — the strongest
// outlier signal there is (the transfer could not even finish inside
// its 4x-slack budget, a violation no honest slow sample produces), so
// it advances the ejection streak by two where an outlier observation
// advances it by one.
func (t *Tracker) NoteStall(class, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.get(class, name)
	e.stalls++
	t.judgeLocked(e, true)
	t.judgeLocked(e, true)
}

// judgeLocked advances the probation state machine after one
// observation (outlier true/false). Callers hold t.mu.
func (t *Tracker) judgeLocked(e *entity, outlier bool) {
	now := t.opt.Now()
	if outlier {
		e.streak++
		e.canaryOK = 0
		if e.probation {
			e.canaryMiss++ // the canary came back sick; back off the next one
		}
		if !e.probation && e.streak >= outlierStreak {
			e.probation = true
			e.since = now
			// First canary only after a full interval — the entity was
			// just observed sick.
			e.lastCanary = now
			t.transition(now, e, "healthy", "probation")
		}
		return
	}
	e.streak = 0
	e.canaryMiss = 0
	if e.probation {
		e.canaryOK++
		if e.canaryOK >= canarySuccesses {
			e.probation = false
			e.canaryOK = 0
			t.transition(now, e, "probation", "healthy")
		}
	}
}

// transition records one state change. Callers hold t.mu.
func (t *Tracker) transition(now float64, e *entity, from, to string) {
	t.transitions = append(t.transitions,
		fmt.Sprintf("t=%.3f %s %s %s->%s", now, e.class, e.name, from, to))
	t.opt.Trace.Emit("health.transition", map[string]any{
		tracelog.AttrEntity: e.name, "class": e.class, "from": from, "to": to,
	})
}

// NoteWarning records a non-transfer health event — a subsystem
// degrading without failing (the control journal falling back to
// in-memory mode on a full device, for instance). It lands in the same
// deterministic transitions log the state machine writes, so reports
// and replays surface it alongside probation flips.
func (t *Tracker) NoteWarning(class, name, msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.opt.Now()
	t.transitions = append(t.transitions,
		fmt.Sprintf("t=%.3f warn %s %s %s", now, class, name, msg))
	t.opt.Trace.Emit("health.warning", map[string]any{
		tracelog.AttrEntity: name, "class": class, "msg": msg,
	})
}

// Weight returns the selection-weight multiplier for an entity: 1 when
// healthy (or unknown), probationWeight on probation.
func (t *Tracker) Weight(class, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entities[key(class, name)]; ok && e.probation {
		return probationWeight
	}
	return 1
}

// Probation reports whether an entity is currently ejected.
func (t *Tracker) Probation(class, name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entities[key(class, name)]
	return ok && e.probation
}

// CanaryTake reports whether a deliberate canary transfer should be
// sent over a probation entity now, and consumes the canary slot if so
// — at most one per canaryInterval, so probation traffic stays a
// trickle.
func (t *Tracker) CanaryTake(class, name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entities[key(class, name)]
	if !ok || !e.probation {
		return false
	}
	now := t.opt.Now()
	// Failed canaries back off exponentially (capped at 8x): while the
	// entity keeps testing sick there is no point burning a full transfer
	// on it every interval.
	backoff := e.canaryMiss
	if backoff > 3 {
		backoff = 3
	}
	if now-e.lastCanary < canaryInterval*float64(int(1)<<backoff) {
		return false
	}
	e.lastCanary = now
	return true
}

// Budget returns the stall watchdog's time budget for moving size bytes
// over the named entity: the time the transfer would take running at
// floorFrac of the learned baseline, plus grace — or defaultBudget when
// no baseline exists yet.
func (t *Tracker) Budget(class, name string, size float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entities[key(class, name)]
	if !ok || e.base.Count() == 0 {
		return defaultBudget
	}
	b := size/(e.base.Value()*floorFrac) + grace
	floor := minBudget
	if e.probation {
		// Canaries are cheap probes, not full transfers: a probationary
		// entity gets half the patience, so a still-sick route is
		// re-confirmed sick (and the canary written off) quickly.
		b /= 2
		floor /= 2
	}
	if b < floor {
		b = floor
	}
	return b
}

// bucketFor returns (creating full if needed) a provider's retry
// bucket. Callers hold t.mu.
func (t *Tracker) bucketFor(provider string) *bucket {
	b, ok := t.buckets[provider]
	if !ok {
		b = &bucket{tokens: retryBurst}
		t.buckets[provider] = b
	}
	return b
}

// AllowRetry spends one retry token for the provider. When the bucket
// is empty it reports false with the retryAfter park hint — the caller
// parks the job instead of hammering a browned-out provider.
func (t *Tracker) AllowRetry(provider string) (bool, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucketFor(provider)
	if b.tokens < 1 {
		b.denied++
		if b.denied == 1 {
			now := t.opt.Now()
			t.transitions = append(t.transitions,
				fmt.Sprintf("t=%.3f budget %s exhausted", now, provider))
			t.opt.Trace.Emit("health.budget", map[string]any{
				tracelog.AttrEntity: provider, "state": "exhausted",
			})
		}
		return false, retryAfter
	}
	b.tokens--
	b.spent++
	return true, 0
}

// RestoreSpentRetries carries a dead incarnation's retry budget across
// a crash. spent is the tokens it spent and had not earned back by the
// crash; the recovered tracker starts from a full bucket, so debiting
// them resumes the provider at the dead incarnation's token level — a
// crash neither refills a sick provider's bucket nor drains a healthy
// one's.
func (t *Tracker) RestoreSpentRetries(provider string, spent float64) {
	if spent <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucketFor(provider)
	b.tokens = max(0, b.tokens-spent)
}

// NoteSuccess earns retry tokens back for the provider — successes fund
// retries, so a healthy provider's budget stays full and a sick one's
// drains and stays drained. It returns the tokens earned: 0 when the
// bucket was already full.
func (t *Tracker) NoteSuccess(provider string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucketFor(provider)
	was := b.tokens
	b.tokens = min(retryBurst, b.tokens+retryEarn)
	if was < 1 && b.tokens >= 1 && b.denied > 0 {
		b.denied = 0 // re-log next exhaustion
	}
	return b.tokens - was
}

// EntityHealth is one row of the health table.
type EntityHealth struct {
	Class, Entity string
	Baseline      float64 // bytes/sec (0 when unlearned)
	Probation     bool
	Streak        int
	Observations  int
	Stalls        int
}

// Snapshot returns every tracked entity, sorted by class then name —
// deterministic, for the health table and reports.
func (t *Tracker) Snapshot() []EntityHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EntityHealth, 0, len(t.entities))
	for _, e := range t.entities {
		out = append(out, EntityHealth{
			Class: e.class, Entity: e.name,
			Baseline: e.base.Value(), Probation: e.probation,
			Streak: e.streak, Observations: e.obs, Stalls: e.stalls,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

// RetryBudget is one provider's retry-bucket snapshot.
type RetryBudget struct {
	Provider string
	Tokens   float64
	Spent    int
	Denied   int
}

// RetryBudgets returns every provider bucket, sorted by provider.
func (t *Tracker) RetryBudgets() []RetryBudget {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RetryBudget, 0, len(t.buckets))
	for p, b := range t.buckets {
		out = append(out, RetryBudget{Provider: p, Tokens: b.tokens, Spent: b.spent, Denied: b.denied})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// Transitions returns the recorded state-change log lines in order.
func (t *Tracker) Transitions() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.transitions...)
}
