package sched

import (
	"errors"
	"sync"
	"testing"

	"detournet/internal/core"
)

// reclaimExec wraps countingExec with a QuotaReclaimer whose freed
// bytes and call count the tests script and inspect.
type reclaimExec struct {
	*countingExec
	mu    sync.Mutex
	freed float64
	calls int
}

func (e *reclaimExec) ReclaimQuota(provider string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.calls++
	return e.freed
}

func (e *reclaimExec) reclaimCalls() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls
}

// quota507 builds the typed cause the executor returns for a 507
// Insufficient Storage: FailQuota class, the Retry-After hint recorded
// on it.
func quota507(retryAfter float64) error {
	return &hintedError{taggedError{tag: core.ErrQuotaExhausted, err: errors.New("httpsim: status 507: insufficient storage")}, retryAfter}
}

// TestQuotaReclaimRetryFloorsBackoff: when session reclaim frees bytes,
// the retry against the same provider is floored at the 507's
// Retry-After hint — retrying before the provider's pacing window just
// burns the attempt the reclaim bought back.
func TestQuotaReclaimRetryFloorsBackoff(t *testing.T) {
	var mu sync.Mutex
	failed := false
	exec := &reclaimExec{countingExec: newCountingExec(0), freed: 100e6}
	exec.fail = func(Job, core.Route) error {
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			return quota507(9)
		}
		return nil
	}
	var delays []float64
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.DirectRoute},
		MaxAttempts: 3,
		// The retry curve's first delay is at most 0.05 s: a delay near
		// the hint provably came from the floor.
		Sleep:    func(sec float64) { delays = append(delays, sec) },
		OnResult: got.add,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "full.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if res := got.all(); len(res) != 1 || res[0].Err != nil {
		t.Fatalf("result = %+v, want one success", res)
	}
	if len(delays) != 1 || delays[0] != 9 {
		t.Fatalf("sleeps = %v, want exactly [9] (the 507 Retry-After hint)", delays)
	}
	if n := exec.reclaimCalls(); n != 1 {
		t.Fatalf("reclaim calls = %d, want 1", n)
	}
	st := s.Stats()
	if st.QuotaFailures != 1 || st.QuotaReclaims != 1 || st.ProviderSpills != 0 || st.QuotaParks != 0 {
		t.Fatalf("stats = %+v, want 1 quota failure, 1 reclaim, 0 spills, 0 parks", st)
	}
}

// TestQuotaSpillSwitchesProvider: reclaim freeing nothing, the job
// spills to its first allowed alternate — a fresh provider session,
// no attempt slot burned, no backoff sleep.
func TestQuotaSpillSwitchesProvider(t *testing.T) {
	exec := &reclaimExec{countingExec: newCountingExec(0), freed: 0}
	exec.fail = func(j Job, _ core.Route) error {
		if j.Provider == "full-a" || j.Provider == "full-b" {
			return quota507(5)
		}
		return nil
	}
	var delays []float64
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.DirectRoute},
		MaxAttempts: 3,
		Sleep:       func(sec float64) { delays = append(delays, sec) },
		OnResult:    got.add,
	})
	s.Start()
	defer s.Close()
	err := s.Submit(Job{
		Tenant: "t", Client: "c", Provider: "full-a",
		AltProviders: []string{"full-b", "open"},
		Name:         "spill.bin", Size: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("result = %+v, want one success", res)
	}
	if res[0].Job.Provider != "open" {
		t.Fatalf("final provider = %q, want %q (spilled down the alt chain)", res[0].Job.Provider, "open")
	}
	if res[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (spills do not burn attempt slots)", res[0].Attempts)
	}
	if len(delays) != 0 {
		t.Fatalf("sleeps = %v, want none (spills do not back off)", delays)
	}
	st := s.Stats()
	if st.ProviderSpills != 2 || st.QuotaFailures != 2 || st.QuotaParks != 0 {
		t.Fatalf("stats = %+v, want 2 spills, 2 quota failures, 0 parks", st)
	}
}

// TestQuotaParksWithTypedError: nothing reclaimed and nowhere to
// spill, the job parks with a *QuotaError carrying the provider's
// Retry-After hint, and errors.Is matches core.ErrQuotaExhausted.
func TestQuotaParksWithTypedError(t *testing.T) {
	exec := newCountingExec(0)
	exec.fail = func(Job, core.Route) error { return quota507(12) }
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.DirectRoute},
		MaxAttempts: 4,
		Sleep:       func(float64) {},
		OnResult:    got.add,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "parked.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("result = %+v, want one failure", res)
	}
	var qe *QuotaError
	if !errors.As(res[0].Err, &qe) {
		t.Fatalf("err = %v (%T), want *QuotaError", res[0].Err, res[0].Err)
	}
	if qe.Provider != "p" || qe.RetryAfter != 12 {
		t.Fatalf("QuotaError = %+v, want provider p, retry-after 12", qe)
	}
	if !errors.Is(res[0].Err, core.ErrQuotaExhausted) {
		t.Fatal("errors.Is(err, core.ErrQuotaExhausted) = false, want true")
	}
	if res[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (quota parks immediately, no blind retries)", res[0].Attempts)
	}
	st := s.Stats()
	if st.QuotaParks != 1 {
		t.Fatalf("stats = %+v, want 1 quota park", st)
	}
}

// TestQuotaParkDefaultHint: a 507 without Retry-After parks with the
// default hint instead of zero.
func TestQuotaParkDefaultHint(t *testing.T) {
	exec := newCountingExec(0)
	exec.fail = func(Job, core.Route) error { return quota507(0) }
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.DirectRoute},
		MaxAttempts: 2,
		Sleep:       func(float64) {},
		OnResult:    got.add,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "hintless.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	var qe *QuotaError
	if len(res) != 1 || !errors.As(res[0].Err, &qe) {
		t.Fatalf("result = %+v, want one *QuotaError failure", res)
	}
	if qe.RetryAfter != defaultQuotaParkAfter {
		t.Fatalf("RetryAfter = %v, want default %v", qe.RetryAfter, float64(defaultQuotaParkAfter))
	}
}

// TestQuotaReclaimOnlyOnce: a provider that stays full after a
// successful-looking reclaim is not reclaimed again by the same job —
// the ladder moves on to spill/park instead of looping.
func TestQuotaReclaimOnlyOnce(t *testing.T) {
	exec := &reclaimExec{countingExec: newCountingExec(0), freed: 100e6}
	exec.fail = func(Job, core.Route) error { return quota507(1) }
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.DirectRoute},
		MaxAttempts: 4,
		Sleep:       func(float64) {},
		OnResult:    got.add,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "stillfull.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("result = %+v, want one failure", res)
	}
	if n := exec.reclaimCalls(); n != 1 {
		t.Fatalf("reclaim calls = %d, want exactly 1 per job per provider", n)
	}
}

// TestClassifyQuota pins the taxonomy: tagged quota errors and bare
// core.ErrQuotaExhausted classify FailQuota; the class renders "quota".
func TestClassifyQuota(t *testing.T) {
	if c := Classify(quota507(3)); c != FailQuota {
		t.Fatalf("Classify(tagged 507) = %v, want FailQuota", c)
	}
	if c := Classify(core.ErrQuotaExhausted); c != FailQuota {
		t.Fatalf("Classify(sentinel) = %v, want FailQuota", c)
	}
	if FailQuota.String() != "quota" {
		t.Fatalf("FailQuota.String() = %q", FailQuota.String())
	}
}
