package sched

import (
	"sort"
	"sync"

	"detournet/internal/core"
)

// This file is the overload-control layer: CoDel-style queue-delay
// shedding, the brownout state machine, and the per-route latency
// percentile tracker that prices hedged transfers. The bounded,
// fair-queued admission side lives in queue.go; the wiring through
// Submit and the worker loop lives in sched.go.

// codel sheds jobs at dequeue when the queue's *standing* delay exceeds
// a target, CoDel-style: the signal is an EWMA of time-in-queue (sojourn
// time), not instantaneous length, so short bursts pass through and only
// persistent backlog triggers shedding. Hysteresis (exit at target/2)
// keeps it from flapping at the boundary.
type codel struct {
	mu       sync.Mutex
	target   float64 // standing-delay target in seconds
	alpha    float64 // EWMA smoothing factor
	ewma     float64
	primed   bool
	dropping bool
}

func newCodel(target, alpha float64) *codel {
	if target <= 0 {
		return nil
	}
	return &codel{target: target, alpha: alpha}
}

// onDequeue folds one observed queue delay into the EWMA and decides
// whether to shed the job it belongs to. A job is shed only while the
// smoothed delay exceeds the target AND its own delay does too — a
// fresh job that raced through a draining queue is never shed.
func (c *codel) onDequeue(delay float64) (shed bool, retryAfter float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.primed {
		c.ewma, c.primed = delay, true
	} else {
		c.ewma = c.alpha*delay + (1-c.alpha)*c.ewma
	}
	switch {
	case !c.dropping && c.ewma > c.target:
		c.dropping = true
	case c.dropping && c.ewma < c.target/2:
		c.dropping = false
	}
	if c.dropping && delay > c.target {
		return true, c.ewma
	}
	return false, 0
}

// smoothed returns the current EWMA of queue delay.
func (c *codel) smoothed() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ewma
}

// brownout is the hysteretic degraded-service state machine: above the
// enter threshold of queue utilization the scheduler sheds *optional*
// work first — bandit refresh, probe-based cache refresh, detour
// planning for small size-buckets, hedging — and restores it only once
// utilization falls below the (lower) exit threshold. Guarded by the
// scheduler's mu; the scheduler counts the transitions in its registry.
type brownout struct {
	enter, exit float64 // occupancy fractions of the queue limit
	active      bool
}

func newBrownout(enter float64) *brownout {
	return &brownout{enter: enter, exit: enter / 2}
}

// observe feeds the current utilization (queued / limit) through the
// hysteresis and reports whether brownout is active.
func (b *brownout) observe(util float64) bool {
	switch {
	case !b.active && util >= b.enter:
		b.active = true
	case b.active && util <= b.exit:
		b.active = false
	}
	return b.active
}

// latencyTracker learns per-route service-time distributions from
// completed transfers, normalized to seconds-per-byte so files of
// different sizes share one distribution. It prices hedged transfers:
// a detour attempt gets a time budget of pXX(route) × size, and a
// direct hedge launches only once that budget is exceeded. Guarded by
// the scheduler's mu.
type latencyTracker struct {
	rings map[core.Route]*sampleRing // route → last latencyWindow sec/byte
}

// latencyWindow is how many recent transfers each route's latency ring
// keeps.
const latencyWindow = 64

// delayWindow is how many admitted jobs' queue delays the scheduler
// keeps for Stats' p99.
const delayWindow = 1024

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{rings: make(map[core.Route]*sampleRing)}
}

// note records one completed transfer on a route.
func (t *latencyTracker) note(route core.Route, seconds, bytes float64) {
	if seconds <= 0 || bytes <= 0 {
		return
	}
	r := t.rings[route]
	if r == nil {
		r = newSampleRing(latencyWindow)
		t.rings[route] = r
	}
	r.note(seconds / bytes)
}

// count reports how many samples a route has accumulated.
func (t *latencyTracker) count(route core.Route) int {
	if r := t.rings[route]; r != nil {
		return len(r.buf)
	}
	return 0
}

// percentile returns the route's pXX seconds-per-byte (q in (0,1]), or
// false with no samples.
func (t *latencyTracker) percentile(route core.Route, q float64) (float64, bool) {
	r := t.rings[route]
	if r == nil {
		return 0, false
	}
	return r.percentile(q), true
}

// sampleRing keeps the last N samples so a percentile can be read
// without unbounded memory: the queue delays of admitted jobs (for
// Stats' p99) and each route's seconds-per-byte. Guarded by the
// scheduler's mu.
type sampleRing struct {
	buf  []float64
	next int
}

func newSampleRing(n int) *sampleRing {
	return &sampleRing{buf: make([]float64, 0, n)}
}

func (r *sampleRing) note(d float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
		return
	}
	r.buf[r.next] = d
	r.next = (r.next + 1) % cap(r.buf)
}

// percentile returns the q-th percentile (q in (0,1]) of the retained
// window, 0 with no samples.
func (r *sampleRing) percentile(q float64) float64 {
	if len(r.buf) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.buf...)
	sort.Float64s(sorted)
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// JainIndex is Jain's fairness index over per-tenant allocations:
// (Σx)² / (n·Σx²), 1.0 when perfectly equal, →1/n when one tenant
// takes everything. Zero-valued inputs count; an empty input is 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
