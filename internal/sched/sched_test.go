package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/scenario"
)

// countingExec is a concurrency-observing fake executor: it tracks
// in-flight and peak transfers per provider and per DTN, so tests can
// assert the scheduler's caps from the executor's point of view — the
// side that would melt if the caps leaked.
type countingExec struct {
	mu          sync.Mutex
	provIn      map[string]int
	provPeak    map[string]int
	dtnIn       map[string]int
	dtnPeak     map[string]int
	calls       int
	hold        time.Duration
	fail        func(Job, core.Route) error
	transferSec float64
}

func newCountingExec(hold time.Duration) *countingExec {
	return &countingExec{
		provIn: map[string]int{}, provPeak: map[string]int{},
		dtnIn: map[string]int{}, dtnPeak: map[string]int{},
		hold: hold, transferSec: 1.5,
	}
}

func (e *countingExec) Execute(j Job, r core.Route) (float64, error) {
	e.mu.Lock()
	e.calls++
	e.provIn[j.Provider]++
	if e.provIn[j.Provider] > e.provPeak[j.Provider] {
		e.provPeak[j.Provider] = e.provIn[j.Provider]
	}
	if r.Kind == core.Detour {
		e.dtnIn[r.Via]++
		if e.dtnIn[r.Via] > e.dtnPeak[r.Via] {
			e.dtnPeak[r.Via] = e.dtnIn[r.Via]
		}
	}
	failFn := e.fail
	e.mu.Unlock()

	var err error
	if failFn != nil {
		err = failFn(j, r)
	}
	if e.hold > 0 {
		time.Sleep(e.hold)
	}

	e.mu.Lock()
	e.provIn[j.Provider]--
	if r.Kind == core.Detour {
		e.dtnIn[r.Via]--
	}
	e.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return e.transferSec, nil
}

func (e *countingExec) peaks() (map[string]int, map[string]int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := func(m map[string]int) map[string]int {
		out := map[string]int{}
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	return cp(e.provPeak), cp(e.dtnPeak)
}

// staticPlanner always picks the given route and counts its calls.
type staticPlanner struct {
	mu    sync.Mutex
	calls int
	route core.Route
}

func (p *staticPlanner) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	return p.route, []core.Route{core.DirectRoute, core.ViaRoute(scenario.UAlberta), core.ViaRoute(scenario.UMich)}, nil
}

func (p *staticPlanner) planCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// collector gathers results thread-safely.
type collector struct {
	mu      sync.Mutex
	results []Result
}

func (c *collector) add(r Result) {
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

func (c *collector) all() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Result(nil), c.results...)
}

var noSleep = func(float64) {}

// fleetJobs builds n jobs spread over 3 clients and 3 providers.
func fleetJobs(n int) []Job {
	clients := []string{scenario.UBC, scenario.Purdue, scenario.UCLA}
	providers := []string{scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Tenant:   clients[i%len(clients)],
			Client:   clients[i%len(clients)],
			Provider: providers[(i/3)%len(providers)],
			Name:     fmt.Sprintf("job-%04d.bin", i),
			Size:     float64(1+i%8) * 1e6,
			Priority: i % 3,
		}
	}
	return jobs
}

// TestDrainRespectsCaps is the headline fleet test: 600 jobs across 3
// clients and 3 providers drain through 64 workers while the executor
// never observes more than ProviderCap concurrent transfers per
// provider or DTNCap per DTN.
func TestDrainRespectsCaps(t *testing.T) {
	const jobs, provCap, dtnCap = 600, 3, 2
	exec := newCountingExec(200 * time.Microsecond)
	plan := &staticPlanner{route: core.ViaRoute(scenario.UAlberta)}
	var got collector
	s := New(Config{
		Workers: 64, Executor: exec, Planner: plan,
		ProviderCap: provCap, DTNCap: dtnCap,
		Sleep: noSleep, OnResult: got.add,
	})
	s.Start()
	for _, j := range fleetJobs(jobs) {
		if err := s.Submit(j); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	s.Drain()
	s.Close()

	st := s.Stats()
	if st.Done != jobs || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", st.Done, st.Failed, jobs)
	}
	if len(got.all()) != jobs {
		t.Fatalf("results delivered = %d, want %d", len(got.all()), jobs)
	}
	provPeak, dtnPeak := exec.peaks()
	if len(provPeak) != 3 {
		t.Fatalf("providers seen = %v, want 3", provPeak)
	}
	for prov, peak := range provPeak {
		if peak > provCap {
			t.Errorf("provider %s peak concurrency %d exceeds cap %d", prov, peak, provCap)
		}
	}
	for dtn, peak := range dtnPeak {
		if peak > dtnCap {
			t.Errorf("DTN %s peak concurrency %d exceeds cap %d", dtn, peak, dtnCap)
		}
	}
	// The scheduler's own high-water accounting must agree.
	for prov, peak := range st.ProviderPeak {
		if peak > provCap {
			t.Errorf("stats: provider %s peak %d exceeds cap %d", prov, peak, provCap)
		}
	}
	for dtn, peak := range st.DTNPeak {
		if peak > dtnCap {
			t.Errorf("stats: DTN %s peak %d exceeds cap %d", dtn, peak, dtnCap)
		}
	}
	// Per-route throughput aggregates cover all completed bytes.
	var bytes float64
	for _, rs := range st.PerRoute {
		bytes += rs.Bytes
		if rs.Throughput() <= 0 {
			t.Errorf("route stats missing throughput: %+v", rs)
		}
	}
	var want float64
	for _, j := range fleetJobs(jobs) {
		want += j.Size
	}
	if bytes != want {
		t.Errorf("per-route bytes = %g, want %g", bytes, want)
	}
}

// TestCacheAmortizesProbing floods repeated traffic at a handful of
// keys: after a sequential warm-up, ≥90% of jobs must ride cached
// decisions, and the planner must have probed at most once per key.
func TestCacheAmortizesProbing(t *testing.T) {
	exec := newCountingExec(50 * time.Microsecond)
	plan := &staticPlanner{route: core.ViaRoute(scenario.UAlberta)}
	s := New(Config{Workers: 8, Executor: exec, Planner: plan, Sleep: noSleep})
	s.Start()
	defer s.Close()

	keys := []struct{ client, provider string }{
		{scenario.UBC, scenario.GoogleDrive},
		{scenario.UBC, scenario.Dropbox},
		{scenario.Purdue, scenario.GoogleDrive},
		{scenario.UCLA, scenario.OneDrive},
	}
	mk := func(i int) Job {
		k := keys[i%len(keys)]
		return Job{Tenant: k.client, Client: k.client, Provider: k.provider,
			Name: fmt.Sprintf("rep-%04d.bin", i), Size: 2e6}
	}
	// Warm the cache: one job per key, sequentially.
	for i := 0; i < len(keys); i++ {
		if err := s.Submit(mk(i)); err != nil {
			t.Fatal(err)
		}
		s.Drain()
	}
	// Flood.
	const total = 200
	for i := len(keys); i < total; i++ {
		if err := s.Submit(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()

	st := s.Stats()
	if st.Done != total {
		t.Fatalf("done = %d, want %d", st.Done, total)
	}
	if hr := st.CacheHitRate(); hr < 0.9 {
		t.Errorf("cache hit rate = %.2f, want >= 0.90", hr)
	}
	if pc := plan.planCalls(); pc > len(keys) {
		t.Errorf("planner probed %d times for %d keys", pc, len(keys))
	}
}

// TestInvalidationOnFailure drives a cached detour into repeated DTN
// failure and watches the control plane (a) finish the job direct, and
// (b) flip the cached decision so followers skip the dead DTN without
// re-probing.
func TestInvalidationOnFailure(t *testing.T) {
	bad := core.ViaRoute(scenario.UAlberta)
	exec := newCountingExec(0)
	exec.fail = func(j Job, r core.Route) error {
		if r == bad {
			return errors.New("dtn unreachable")
		}
		return nil
	}
	plan := &staticPlanner{route: bad}
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: plan,
		MaxAttempts: 5, Sleep: noSleep, OnResult: got.add,
	})
	s.Start()
	defer s.Close()

	job := Job{Tenant: "t", Client: scenario.UBC, Provider: scenario.GoogleDrive, Name: "a.bin", Size: 2e6}
	if err := s.Submit(job); err != nil {
		t.Fatal(err)
	}
	s.Drain()

	res := got.all()
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("first job should succeed after fallback: %+v", res)
	}
	if res[0].Route != core.DirectRoute {
		t.Fatalf("first job finished on %v, want Direct fallback", res[0].Route)
	}
	if res[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (2 detour failures + direct success)", res[0].Attempts)
	}
	if _, _, inv := s.Cache().Counters(); inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}

	// A follower on the same key must get the switched decision from
	// the cache: direct, no new probe, counted as a hit.
	job.Name = "b.bin"
	if err := s.Submit(job); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res = got.all()
	last := res[len(res)-1]
	if last.Err != nil || last.Route != core.DirectRoute || !last.CacheHit || last.Attempts != 1 {
		t.Fatalf("follower = %+v, want first-try direct cache hit", last)
	}
	if pc := plan.planCalls(); pc != 1 {
		t.Errorf("planner calls = %d, want 1 (invalidation must not force re-probe)", pc)
	}
	st := s.Stats()
	if st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}
}

// TestPriorityOrdering submits mixed-priority jobs before starting the
// single worker: completion order must be priority-descending, FIFO
// within a level.
func TestPriorityOrdering(t *testing.T) {
	exec := newCountingExec(0)
	plan := &staticPlanner{route: core.DirectRoute}
	var got collector
	s := New(Config{Workers: 1, Executor: exec, Planner: plan, Sleep: noSleep, OnResult: got.add})

	names := map[int][]string{}
	for i := 0; i < 9; i++ {
		prio := i % 3
		name := fmt.Sprintf("p%d-%d.bin", prio, i)
		names[prio] = append(names[prio], name)
		if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p",
			Name: name, Size: 1e6, Priority: prio}); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	s.Drain()
	s.Close()

	var want []string
	for prio := 2; prio >= 0; prio-- {
		want = append(want, names[prio]...)
	}
	res := got.all()
	if len(res) != len(want) {
		t.Fatalf("results = %d, want %d", len(res), len(want))
	}
	for i, r := range res {
		if r.Job.Name != want[i] {
			t.Fatalf("completion order[%d] = %s, want %s (full: %v)", i, r.Job.Name, want[i], res)
		}
	}
}

// TestTenantRateLimit checks bucket admission: burst admits, the next
// submit bounces, and refill (on the fake clock) re-admits.
func TestTenantRateLimit(t *testing.T) {
	var mu sync.Mutex
	clock := 0.0
	now := func() float64 { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d float64) { mu.Lock(); clock += d; mu.Unlock() }

	exec := newCountingExec(0)
	plan := &staticPlanner{route: core.DirectRoute}
	s := New(Config{
		Workers: 2, Executor: exec, Planner: plan,
		TenantRate: 3, Now: now, Sleep: noSleep,
	})
	s.Start()
	defer s.Close()

	mk := func(i int) Job {
		return Job{Tenant: "alice", Client: "c", Provider: "p", Name: fmt.Sprintf("r%d.bin", i), Size: 1e6}
	}
	for i := 0; i < 3; i++ {
		if err := s.Submit(mk(i)); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if err := s.Submit(mk(3)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("4th submit err = %v, want ErrRateLimited", err)
	}
	// Another tenant is unaffected.
	if err := s.Submit(Job{Tenant: "bob", Client: "c", Provider: "p", Name: "bob.bin", Size: 1e6}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	advance(1) // 1 second at 3 jobs/sec refills the 3-deep bucket
	for i := 4; i < 7; i++ {
		if err := s.Submit(mk(i)); err != nil {
			t.Fatalf("post-refill submit %d: %v", i, err)
		}
	}
	if err := s.Submit(mk(7)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("exhausted again err = %v, want ErrRateLimited", err)
	}
	s.Drain()
	if st := s.Stats(); st.RateLimited != 2 {
		t.Errorf("rate-limited = %d, want 2", st.RateLimited)
	}
}

// TestDeadlineExpiry: a job whose deadline already passed is dropped
// with ErrDeadline, not executed.
func TestDeadlineExpiry(t *testing.T) {
	clock := 100.0
	exec := newCountingExec(0)
	plan := &staticPlanner{route: core.DirectRoute}
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: plan,
		Now: func() float64 { return clock }, Sleep: noSleep, OnResult: got.add,
	})
	s.Start()
	defer s.Close()

	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p",
		Name: "late.bin", Size: 1e6, Deadline: 50}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	if len(res) != 1 || !errors.Is(res[0].Err, ErrDeadline) {
		t.Fatalf("result = %+v, want ErrDeadline", res)
	}
	if exec.calls != 0 {
		t.Errorf("executor ran %d times for an expired job", exec.calls)
	}
	if st := s.Stats(); st.Expired != 1 || st.Failed != 0 {
		t.Errorf("expired=%d failed=%d, want 1/0", st.Expired, st.Failed)
	}
}

// TestRetryBackoff: transient failures retry with growing, capped
// delays and eventually succeed; the delays pass through Config.Sleep.
func TestRetryBackoff(t *testing.T) {
	var failures int
	var mu sync.Mutex
	exec := newCountingExec(0)
	exec.fail = func(j Job, r core.Route) error {
		mu.Lock()
		defer mu.Unlock()
		if failures < 2 {
			failures++
			return errors.New("transient")
		}
		return nil
	}
	var delays []float64
	plan := &staticPlanner{route: core.DirectRoute}
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: plan, MaxAttempts: 4,
		Sleep:    func(sec float64) { delays = append(delays, sec) },
		OnResult: got.add,
	})
	s.Start()
	defer s.Close()

	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "flaky.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	if len(res) != 1 || res[0].Err != nil || res[0].Attempts != 3 {
		t.Fatalf("result = %+v, want success on attempt 3", res)
	}
	if len(delays) != 2 {
		t.Fatalf("sleeps = %v, want 2", delays)
	}
	// retryBackoff's jitter is 0.5: delay(n) ∈ (0.05·2ⁿ⁻¹/2, 0.05·2ⁿ⁻¹].
	if delays[0] <= 0.025 || delays[0] > 0.05 {
		t.Errorf("first delay %v outside (0.025, 0.05]", delays[0])
	}
	if delays[1] <= 0.05 || delays[1] > 0.1 {
		t.Errorf("second delay %v outside (0.05, 0.1]", delays[1])
	}
	if st := s.Stats(); st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

// TestPermanentFailure: a job that keeps failing exhausts MaxAttempts
// and surfaces the last error.
func TestPermanentFailure(t *testing.T) {
	boom := errors.New("provider 500")
	exec := newCountingExec(0)
	exec.fail = func(Job, core.Route) error { return boom }
	plan := &staticPlanner{route: core.DirectRoute}
	var got collector
	s := New(Config{Workers: 1, Executor: exec, Planner: plan, MaxAttempts: 3, Sleep: noSleep, OnResult: got.add})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "dead.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := got.all()
	if len(res) != 1 || !errors.Is(res[0].Err, boom) || res[0].Attempts != 3 {
		t.Fatalf("result = %+v, want boom after 3 attempts", res)
	}
	if st := s.Stats(); st.Failed != 1 || st.Done != 0 {
		t.Errorf("failed=%d done=%d, want 1/0", st.Failed, st.Done)
	}
}

// TestDrainWaitsForOnResult: Drain returns only once every finished
// result has been handed to OnResult, however slow the callback.
func TestDrainWaitsForOnResult(t *testing.T) {
	var got collector
	s := New(Config{
		Workers: 1, Executor: newCountingExec(0), Planner: &staticPlanner{route: core.DirectRoute}, Sleep: noSleep,
		OnResult: func(r Result) { time.Sleep(20 * time.Millisecond); got.add(r) },
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "slow.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if n := len(got.all()); n != 1 {
		t.Fatalf("Drain returned with %d results delivered, want 1", n)
	}
}

// TestSubmitValidation rejects malformed jobs and post-Close submits.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1, Executor: newCountingExec(0), Planner: &staticPlanner{route: core.DirectRoute}, Sleep: noSleep})
	s.Start()
	if err := s.Submit(Job{Client: "c", Provider: "p", Name: "x", Size: 1}); err == nil {
		t.Error("missing tenant accepted")
	}
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "x", Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
	s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p", Name: "x", Size: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestCloseFailsQueuedJobs: Close with work still queued fails the
// leftovers with ErrClosed instead of stranding them.
func TestCloseFailsQueuedJobs(t *testing.T) {
	exec := newCountingExec(5 * time.Millisecond)
	plan := &staticPlanner{route: core.DirectRoute}
	var got collector
	s := New(Config{Workers: 1, Executor: exec, Planner: plan, Sleep: noSleep, OnResult: got.add})
	for i := 0; i < 10; i++ {
		if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "p",
			Name: fmt.Sprintf("q%d.bin", i), Size: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	time.Sleep(2 * time.Millisecond) // let the worker grab one
	s.Close()
	res := got.all()
	if len(res) != 10 {
		t.Fatalf("results = %d, want 10 (every admitted job must terminate)", len(res))
	}
	var closedErrs int
	for _, r := range res {
		if errors.Is(r.Err, ErrClosed) {
			closedErrs++
		}
	}
	if closedErrs == 0 {
		t.Error("expected some jobs to fail with ErrClosed")
	}
	s.Drain() // must not hang after Close
}

// TestBackoffDelayShape pins the curve: exponential growth, cap, and
// jitter bounds.
func TestBackoffDelayShape(t *testing.T) {
	b := backoffCurve{Base: 0.1, Max: 1, Factor: 2, Jitter: 0.5}
	if d := b.Delay(1, 0); d != 0.1 {
		t.Errorf("Delay(1,0) = %v, want 0.1", d)
	}
	if d := b.Delay(3, 0); d != 0.4 {
		t.Errorf("Delay(3,0) = %v, want 0.4", d)
	}
	if d := b.Delay(10, 0); d != 1 {
		t.Errorf("Delay(10,0) = %v, want capped at 1", d)
	}
	if d := b.Delay(1, 0.999); d < 0.05 || d >= 0.1 {
		t.Errorf("jittered Delay(1) = %v, want in [0.05, 0.1)", d)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		d := b.Delay(4, rng.Float64())
		if d <= 0.4 || d > 0.8 {
			t.Fatalf("Delay(4) = %v outside (0.4, 0.8]", d)
		}
	}
}

// TestSchedulerStress hammers one scheduler from many submitters while
// workers drain — the shape the race detector is here for.
func TestSchedulerStress(t *testing.T) {
	exec := newCountingExec(20 * time.Microsecond)
	plan := &staticPlanner{route: core.ViaRoute(scenario.UMich)}
	s := New(Config{Workers: 16, Executor: exec, Planner: plan, Sleep: noSleep})
	s.Start()
	var wg sync.WaitGroup
	const submitters, each = 8, 50
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = s.Submit(Job{
					Tenant: fmt.Sprintf("t%d", g), Client: scenario.UBC,
					Provider: scenario.GoogleDrive,
					Name:     fmt.Sprintf("s%d-%d.bin", g, i),
					Size:     1e6, Priority: i % 3,
				})
				_ = s.Stats() // concurrent snapshots must be safe
			}
		}(g)
	}
	wg.Wait()
	s.Drain()
	s.Close()
	st := s.Stats()
	if st.Done != submitters*each {
		t.Fatalf("done = %d, want %d", st.Done, submitters*each)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("drained scheduler still shows queued=%d running=%d", st.Queued, st.Running)
	}
}
