package sched

import (
	"sync"
	"testing"

	"detournet/internal/core"
	"detournet/internal/httpsim"
)

// retryAfterSchedRun submits one job whose first attempt fails with the
// given error and returns the backoff sleeps the scheduler took.
func retryAfterSchedRun(t *testing.T, failErr error) []float64 {
	t.Helper()
	var mu sync.Mutex
	var failed bool
	exec := newCountingExec(0)
	exec.fail = func(Job, core.Route) error {
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			return failErr
		}
		return nil
	}
	var delays []float64
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: core.DirectRoute},
		MaxAttempts: 3,
		// The retry curve's first delay is at most 0.05 s, so any delay
		// near a hint provably came from the Retry-After floor.
		Sleep:    func(sec float64) { delays = append(delays, sec) },
		OnResult: got.add,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "throttled.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if res := got.all(); len(res) != 1 || res[0].Err != nil {
		t.Fatalf("result = %+v, want one success", res)
	}
	return delays
}

// TestRetryAfterFloorsBackoff: a provider 429 carrying Retry-After
// floors the retry delay at the hint — backing off into the same
// throttle window just burns an attempt.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	delays := retryAfterSchedRun(t, Transient(&httpsim.StatusError{
		Status: httpsim.StatusTooManyRequests, RetryAfter: 5,
	}))
	if len(delays) != 1 || delays[0] != 5 {
		t.Fatalf("sleeps = %v, want exactly [5] (the Retry-After hint)", delays)
	}
}

// TestRetryAfterFloorCapped: a pathological Retry-After cannot park a
// worker for minutes — the floor caps at maxRetryAfterFloor.
func TestRetryAfterFloorCapped(t *testing.T) {
	delays := retryAfterSchedRun(t, Transient(&httpsim.StatusError{
		Status: httpsim.StatusTooManyRequests, RetryAfter: 9000,
	}))
	if len(delays) != 1 || delays[0] != maxRetryAfterFloor {
		t.Fatalf("sleeps = %v, want [%v] (capped hint)", delays, float64(maxRetryAfterFloor))
	}
}

// TestRetryAfterIgnoredForOtherErrors: the floor only honors a 429's
// hint; a plain 500 keeps the retry curve.
func TestRetryAfterIgnoredForOtherErrors(t *testing.T) {
	delays := retryAfterSchedRun(t, Transient(&httpsim.StatusError{
		Status: httpsim.StatusInternalServerError, RetryAfter: 30,
	}))
	if curve := retryBackoff.Delay(1, 0); len(delays) != 1 || delays[0] > curve {
		t.Fatalf("sleeps = %v, want one curve-sized delay (<= %v)", delays, curve)
	}
}
