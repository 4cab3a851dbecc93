package sched

import (
	"errors"
	"fmt"
	"testing"
)

// mustPush pushes with no expectation of expiry or rejection.
func mustPush(t *testing.T, q *jobQueue, j Job, now float64) {
	t.Helper()
	exp, err := q.push(j, now)
	if err != nil {
		t.Fatalf("push(%q): %v", j.Name, err)
	}
	if len(exp) != 0 {
		t.Fatalf("push(%q) expired %d jobs unexpectedly", j.Name, len(exp))
	}
}

// popName pops one job, failing the test on close or an empty sweep.
func popName(t *testing.T, q *jobQueue) string {
	t.Helper()
	it, exp, ok := q.pop()
	if !ok || it == nil {
		t.Fatalf("pop: ok=%v it=%v (expired %d)", ok, it, len(exp))
	}
	return it.job.Name
}

func TestQueueOrdering(t *testing.T) {
	q := newJobQueue(queueOpts{})
	// Same priority: FIFO.
	mustPush(t, q, Job{Name: "a", Priority: 1}, 0)
	mustPush(t, q, Job{Name: "b", Priority: 1}, 0)
	// Higher priority jumps ahead.
	mustPush(t, q, Job{Name: "c", Priority: 5}, 0)
	// Deadlines break priority ties: earlier first, none last.
	mustPush(t, q, Job{Name: "d", Priority: 1, Deadline: 10}, 0)
	mustPush(t, q, Job{Name: "e", Priority: 1, Deadline: 5}, 0)

	want := []string{"c", "e", "d", "a", "b"}
	for i, w := range want {
		if got := popName(t, q); got != w {
			t.Fatalf("pop[%d] = %q, want %q", i, got, w)
		}
	}
	if q.length() != 0 {
		t.Fatalf("queue not empty: %d", q.length())
	}
}

func TestQueueFIFOWithinLevel(t *testing.T) {
	q := newJobQueue(queueOpts{})
	const n = 100
	for i := 0; i < n; i++ {
		mustPush(t, q, Job{Name: fmt.Sprintf("j%03d", i), Priority: 2}, 0)
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("j%03d", i); popName(t, q) != want {
			t.Fatalf("pop[%d] != %s", i, want)
		}
	}
}

func TestQueueCloseWakesReceivers(t *testing.T) {
	q := newJobQueue(queueOpts{})
	done := make(chan bool)
	for i := 0; i < 4; i++ {
		go func() {
			_, _, ok := q.pop()
			done <- ok
		}()
	}
	q.close()
	for i := 0; i < 4; i++ {
		if ok := <-done; ok {
			t.Fatal("pop returned ok=true after close")
		}
	}
	// tryPop still drains anything left behind.
	if _, ok := q.tryPop(); ok {
		t.Fatal("tryPop on empty closed queue returned a job")
	}
}

func TestQueueBoundedRejects(t *testing.T) {
	q := newJobQueue(queueOpts{limit: 2})
	mustPush(t, q, Job{Tenant: "a", Name: "1"}, 0)
	mustPush(t, q, Job{Tenant: "a", Name: "2"}, 0)
	_, err := q.push(Job{Tenant: "a", Name: "3"}, 0)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push over limit: err=%v, want ErrQueueFull", err)
	}
	// A pop frees a slot.
	popName(t, q)
	mustPush(t, q, Job{Tenant: "a", Name: "3"}, 0)
}

func TestQueueTenantQuota(t *testing.T) {
	q := newJobQueue(queueOpts{limit: 10, tenantLimit: 2})
	mustPush(t, q, Job{Tenant: "hog", Name: "1"}, 0)
	mustPush(t, q, Job{Tenant: "hog", Name: "2"}, 0)
	_, err := q.push(Job{Tenant: "hog", Name: "3"}, 0)
	if !errors.Is(err, ErrTenantQuota) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("tenant over quota: err=%v, want ErrTenantQuota (matching ErrQueueFull)", err)
	}
	// Other tenants still have room.
	mustPush(t, q, Job{Tenant: "meek", Name: "4"}, 0)
}

func TestQueueExpiresInPlace(t *testing.T) {
	now := 0.0
	q := newJobQueue(queueOpts{now: func() float64 { return now }})
	mustPush(t, q, Job{Tenant: "a", Name: "dead", Deadline: 5}, 0)
	mustPush(t, q, Job{Tenant: "a", Name: "alive"}, 0)
	now = 10
	it, exp, ok := q.pop()
	if !ok || it == nil {
		t.Fatalf("pop: ok=%v it=%v", ok, it)
	}
	if it.job.Name != "alive" {
		t.Fatalf("pop = %q, want the un-expired job", it.job.Name)
	}
	if len(exp) != 1 || exp[0].job.Name != "dead" {
		t.Fatalf("expired = %v, want [dead]", exp)
	}
	if q.length() != 0 {
		t.Fatalf("length = %d after expiry", q.length())
	}
}

// A full queue frees slots held by dead jobs before rejecting.
func TestQueuePushSweepsDeadJobs(t *testing.T) {
	now := 0.0
	q := newJobQueue(queueOpts{limit: 1, now: func() float64 { return now }})
	mustPush(t, q, Job{Tenant: "a", Name: "dead", Deadline: 5}, 0)
	now = 10
	exp, err := q.push(Job{Tenant: "a", Name: "fresh"}, now)
	if err != nil {
		t.Fatalf("push after sweep: %v", err)
	}
	if len(exp) != 1 || exp[0].job.Name != "dead" {
		t.Fatalf("expired = %v, want [dead]", exp)
	}
	if got := popName(t, q); got != "fresh" {
		t.Fatalf("pop = %q, want fresh", got)
	}
}

// DRR fair mode: a flooding tenant cannot starve a light one at the
// same priority, and weights skew the shares.
func TestQueueDRRFairness(t *testing.T) {
	q := newJobQueue(queueOpts{fair: true, quantum: 1e6})
	const size = 1e6
	for i := 0; i < 50; i++ {
		mustPush(t, q, Job{Tenant: "hog", Name: fmt.Sprintf("h%02d", i), Size: size}, 0)
	}
	for i := 0; i < 5; i++ {
		mustPush(t, q, Job{Tenant: "meek", Name: fmt.Sprintf("m%02d", i), Size: size}, 0)
	}
	// In the first 10 pops, meek — despite submitting last and 10× less
	// — should get ~half the service.
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		it, _, ok := q.pop()
		if !ok || it == nil {
			t.Fatal("pop failed")
		}
		counts[it.job.Tenant]++
	}
	if counts["meek"] < 4 {
		t.Fatalf("meek got %d of first 10 pops; DRR should interleave (counts=%v)", counts["meek"], counts)
	}
}

// Priority still strictly dominates DRR: all high-priority jobs drain
// before any low-priority ones regardless of tenant balance.
func TestQueueDRRPriorityDominates(t *testing.T) {
	q := newJobQueue(queueOpts{fair: true})
	mustPush(t, q, Job{Tenant: "a", Name: "low1", Priority: 1, Size: 1}, 0)
	mustPush(t, q, Job{Tenant: "b", Name: "low2", Priority: 1, Size: 1}, 0)
	mustPush(t, q, Job{Tenant: "a", Name: "high1", Priority: 9, Size: 1}, 0)
	mustPush(t, q, Job{Tenant: "b", Name: "high2", Priority: 9, Size: 1}, 0)
	first, second := popName(t, q), popName(t, q)
	if first[:4] != "high" || second[:4] != "high" {
		t.Fatalf("pops = %q, %q; want both high-priority first", first, second)
	}
}

// TestQueuePushPopAllocs: on a warm strict queue one push plus one pop
// allocates at most the queued item itself. The heap holds pointers, so
// nothing is boxed into an interface or copied out to the heap on the
// way through.
func TestQueuePushPopAllocs(t *testing.T) {
	q := newJobQueue(queueOpts{})
	j := Job{Tenant: "t", Client: "c", Provider: "p", Name: "a", Size: 1, Priority: 1}
	for i := 0; i < 8; i++ {
		mustPush(t, q, j, 0)
	}
	for q.length() > 0 {
		popName(t, q)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := q.push(j, 0); err != nil {
			t.Fatal(err)
		}
		if it, _, ok := q.pop(); !ok || it == nil {
			t.Fatal("pop came back empty")
		}
	})
	if allocs > 1 {
		t.Fatalf("push+pop allocates %.1f times, want at most 1", allocs)
	}
}
