package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerHalfOpenSingleProbe is the half-open admission property:
// however many workers race at a breaker whose cooldown just elapsed,
// exactly one is admitted as the probe — the rest keep being rejected
// until the probe reports. Run under -race this also proves the state
// machine's locking.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	const workers = 32
	var now float64
	bs := newBreakerSet(1, 10, func() float64 { return now })

	bs.failure("k") // threshold 1: opens immediately
	if bs.allow("k") {
		t.Fatal("open breaker admitted a job inside the cooldown")
	}

	// Round 1: cooldown elapsed, workers race. Exactly one probe.
	now = 15
	admitted := raceAllow(bs, "k", workers)
	if admitted != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", admitted)
	}

	// The probe fails: straight back to open, nobody admitted until the
	// next cooldown elapses.
	bs.failure("k")
	if bs.allow("k") {
		t.Fatal("failed probe did not re-open the breaker")
	}

	// Round 2: another cooldown, another single probe — this time it
	// succeeds and the breaker closes for everyone.
	now = 30
	if admitted := raceAllow(bs, "k", workers); admitted != 1 {
		t.Fatalf("re-entered half-open admitted %d probes, want 1", admitted)
	}
	bs.success("k")
	if admitted := raceAllow(bs, "k", workers); admitted != workers {
		t.Fatalf("closed breaker admitted %d of %d", admitted, workers)
	}
}

// raceAllow fires n concurrent allow calls and returns how many were
// admitted.
func raceAllow(bs *breakerSet, key string, n int) int {
	var admitted int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if bs.allow(key) {
				atomic.AddInt64(&admitted, 1)
			}
		}()
	}
	close(start)
	wg.Wait()
	return int(admitted)
}

// TestBreakerClockOutsideLock: the breakers read their clock before
// taking their own lock. A simulated clock takes the executor's lock,
// and a sampler hook that runs under that lock reads the breakers
// (Scheduler.Stats), so a clock read under the breaker lock deadlocks
// the two: here clock stands for the executor's lock, held while
// snapshot runs, as the hook holds it.
func TestBreakerClockOutsideLock(t *testing.T) {
	var clock sync.Mutex
	reading := make(chan struct{}, 2)
	bs := newBreakerSet(1, 10, func() float64 {
		reading <- struct{}{}
		clock.Lock()
		defer clock.Unlock()
		return 0
	})
	for _, op := range []struct {
		name string
		call func()
	}{
		{"failure", func() { bs.failure("k") }}, // threshold 1: opens
		{"allow", func() { bs.allow("k") }},     // open: reads the cooldown clock
	} {
		clock.Lock()
		called := make(chan struct{})
		go func() {
			op.call()
			close(called)
		}()
		<-reading // op is inside its clock read, blocked on clock
		snapped := make(chan struct{})
		go func() {
			bs.snapshot()
			close(snapped)
		}()
		select {
		case <-snapped:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s holds the breaker lock while it reads the clock", op.name)
		}
		clock.Unlock()
		<-called
	}
}
