package sched

import (
	"sync"

	"detournet/internal/core"
)

// BreakerState is one circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe job; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerKey names a per-route breaker. Provider-level health (outages
// affecting every route) lives under providerKey.
func breakerKey(provider string, route core.Route) string {
	return provider + "|" + route.String()
}

func providerKey(provider string) string { return provider + "|*" }

// breakerSet holds the scheduler's circuit breakers, one per key. It is
// advisory: a rejected route diverts the job to an alternate when one
// exists, but never strands a job with zero routes.
//
// It never reads its clock while it holds mu: a simulated clock takes
// the executor's lock, and a sampler hook running inside a workload,
// under that lock, reads the breakers through Scheduler.Stats.
type breakerSet struct {
	mu          sync.Mutex
	threshold   int
	cooldown    float64
	now         func() float64
	m           map[string]*breaker
	transitions int64
}

type breaker struct {
	state    BreakerState
	fails    int
	openedAt float64
	// probing marks the in-flight half-open probe, so concurrent jobs
	// keep being rejected until it reports.
	probing bool
}

func newBreakerSet(threshold int, cooldown float64, now func() float64) *breakerSet {
	return &breakerSet{
		threshold: threshold, cooldown: cooldown, now: now,
		m: make(map[string]*breaker),
	}
}

// allow reports whether a job may use the key. The first call after an
// open breaker's cooldown flips it to half-open and admits the caller
// as the probe.
func (b *breakerSet) allow(key string) bool {
	b.mu.Lock()
	br := b.m[key]
	closed := br == nil || br.state == BreakerClosed
	b.mu.Unlock()
	if closed {
		return true
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch br.state { // breakers are never removed, but br may have moved
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now-br.openedAt < b.cooldown {
			return false
		}
		br.state = BreakerHalfOpen
		br.probing = true
		b.transitions++
		return true
	default: // half-open
		if br.probing {
			return false
		}
		br.probing = true
		return true
	}
}

// success closes the key's breaker.
func (b *breakerSet) success(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil {
		return
	}
	if br.state != BreakerClosed {
		b.transitions++
	}
	br.state = BreakerClosed
	br.fails = 0
	br.probing = false
}

// failure records a failure: threshold consecutive failures open a
// closed breaker, and a failed half-open probe re-opens immediately.
func (b *breakerSet) failure(key string) {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[key]
	if br == nil {
		br = &breaker{}
		b.m[key] = br
	}
	switch br.state {
	case BreakerHalfOpen:
		br.state = BreakerOpen
		br.openedAt = now
		br.probing = false
		b.transitions++
	case BreakerClosed:
		br.fails++
		if br.fails >= b.threshold {
			br.state = BreakerOpen
			br.openedAt = now
			b.transitions++
		}
	default: // already open: a straggler's failure extends the cooldown
		br.openedAt = now
	}
}

// snapshot returns each key's state plus the lifetime transition count.
func (b *breakerSet) snapshot() (map[string]string, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.m))
	for k, br := range b.m {
		out[k] = br.state.String()
	}
	return out, b.transitions
}
