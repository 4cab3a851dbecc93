package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
)

// ---- synthetic deterministic harness ----------------------------------
//
// The overload acceptance tests run the real scheduler against a manual
// virtual clock and an analytic executor: one worker, so every clock
// advance is sequential, and trace arrivals are injected the moment an
// executor call carries the clock past them. Same trace + same config ⇒
// byte-identical outcomes — the pattern the overload replay
// (`detourbench -experiment overload`) reuses.

// vclock is a manual scheduler clock safe for concurrent reads.
type vclock struct {
	mu sync.Mutex
	t  float64
}

func (c *vclock) now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.t += d
	}
	return c.t
}

// arrival is one trace entry for the synthetic driver.
type arrival struct {
	at  float64
	job Job
}

// synthExec serves every transfer at a fixed seconds-per-byte rate in
// manual virtual time, and — the crucial part — calls feed after every
// clock advance so arrivals due during a transfer enter the queue as if
// they had arrived in real time.
type synthExec struct {
	clock   *vclock
	spb     float64
	planSec float64
	feed    func(now float64)
}

func (e *synthExec) Execute(j Job, r core.Route) (float64, error) {
	sec := j.Size * e.spb
	end := e.clock.advance(sec)
	if e.feed != nil {
		e.feed(end)
	}
	return sec, nil
}

func (e *synthExec) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	end := e.clock.advance(e.planSec)
	if e.feed != nil {
		e.feed(end)
	}
	return core.DirectRoute, nil, nil
}

func (e *synthExec) sleep(sec float64) {
	end := e.clock.advance(sec)
	if e.feed != nil {
		e.feed(end)
	}
}

// synthRun drives one scheduler through one trace.
type synthRun struct {
	clock *vclock
	s     *Scheduler
	col   *collector

	mu       sync.Mutex
	trace    []arrival
	i        int
	attempts map[string]int64 // per-tenant submission attempts
	rejects  map[string]int64 // per-tenant backpressure rejections
}

func newSynthRun(trace []arrival, tune func(*Config)) *synthRun {
	r := &synthRun{
		clock:    &vclock{},
		col:      &collector{},
		trace:    trace,
		attempts: map[string]int64{},
		rejects:  map[string]int64{},
	}
	exec := &synthExec{clock: r.clock, spb: 1e-7, planSec: 0.5, feed: r.feed}
	cfg := Config{
		Workers:     1, // sequential ⇒ deterministic
		Executor:    exec,
		Planner:     exec,
		ProviderCap: -1, DTNCap: -1,
		MaxAttempts: 1,
		CacheTTL:    1e9,
		Now:         r.clock.now,
		Sleep:       exec.sleep,
		OnResult:    r.col.add,
	}
	if tune != nil {
		tune(&cfg)
	}
	r.s = New(cfg)
	return r
}

// feed submits every trace arrival that is due by now. Called from the
// worker (mid-execution) and from drive (worker idle); the two never
// overlap, but the mutex keeps the race detector satisfied.
func (r *synthRun) feed(now float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.i < len(r.trace) && r.trace[r.i].at <= now {
		j := r.trace[r.i].job
		r.i++
		r.attempts[j.Tenant]++
		if err := r.s.Submit(j); err != nil {
			r.rejects[j.Tenant]++
		}
	}
}

// drive replays the whole trace and drains the scheduler.
func (r *synthRun) drive() {
	r.s.Start()
	for {
		r.s.Drain()
		r.mu.Lock()
		done := r.i >= len(r.trace)
		var next float64
		if !done {
			next = r.trace[r.i].at
		}
		r.mu.Unlock()
		if done {
			break
		}
		if now := r.clock.now(); next > now {
			r.clock.advance(next - now)
		}
		r.feed(r.clock.now())
	}
	r.s.Drain()
	r.s.Close()
}

// flashCrowdTrace builds the acceptance workload: four steady tenants
// at 1.25 jobs/s for the whole 160s trace, plus a flash tenant bursting
// at 25 jobs/s during [40s, 120s) — 30 jobs/s aggregate against a
// 10 jobs/s sustainable service rate (1 MB jobs at 10 MB/s), every job
// with 15s of deadline slack.
const (
	synthSlack      = 15.0
	synthTraceEnd   = 160.0
	synthBurstStart = 40.0
	synthBurstEnd   = 120.0
)

func flashCrowdTrace(seed int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []arrival
	add := func(tenant string, at float64, i int) {
		trace = append(trace, arrival{at: at, job: Job{
			Tenant: tenant, Client: "site", Provider: "P",
			Name: fmt.Sprintf("%s-%05d.bin", tenant, i),
			Size: 1e6, Deadline: at + synthSlack,
		}})
	}
	for ti := 0; ti < 4; ti++ {
		tenant := fmt.Sprintf("steady-%d", ti)
		t, i := 0.0, 0
		for {
			t += rng.ExpFloat64() / 1.25
			if t > synthTraceEnd {
				break
			}
			add(tenant, t, i)
			i++
		}
	}
	t, i := synthBurstStart, 0
	for {
		t += rng.ExpFloat64() / 25
		if t >= synthBurstEnd {
			break
		}
		add("flash", t, i)
		i++
	}
	sort.SliceStable(trace, func(a, b int) bool { return trace[a].at < trace[b].at })
	return trace
}

// overloadTune arms the full overload-control stack.
func overloadTune(cfg *Config) {
	cfg.QueueLimit = 200
	cfg.TenantQueueLimit = 120
	cfg.CoDelTarget = 3
}

// goodput sums bytes of jobs that completed before their deadline.
func goodput(results []Result) float64 {
	var b float64
	for _, r := range results {
		if r.Err == nil && !r.Late {
			b += r.Job.Size
		}
	}
	return b
}

// quarterMeans buckets every result's queue delay by its arrival-time
// quarter of the trace.
func quarterMeans(results []Result) [4]float64 {
	var sum, n [4]float64
	for _, r := range results {
		at := r.Job.Deadline - synthSlack
		q := int(at / (synthTraceEnd / 4))
		if q > 3 {
			q = 3
		}
		sum[q] += r.QueueDelay
		n[q]++
	}
	var out [4]float64
	for i := range out {
		if n[i] > 0 {
			out[i] = sum[i] / n[i]
		}
	}
	return out
}

// TestOverloadAcceptance is the issue's acceptance criterion: under a
// flash crowd at 3× the sustainable rate, the overload-controlled
// scheduler beats a control run (no bounds, no shedding, no fairness)
// by ≥1.5× goodput, keeps every steady tenant at ≥half its fair share
// (Jain ≥ 0.9 across steady tenants; the flash aggressor is excluded
// since it demands far more than its share by construction), and keeps
// queue delay bounded while the control's grows through the trace.
func TestOverloadAcceptance(t *testing.T) {
	trace := flashCrowdTrace(42)

	control := newSynthRun(trace, nil)
	control.drive()
	overload := newSynthRun(trace, overloadTune)
	overload.drive()

	gControl, gOverload := goodput(control.col.all()), goodput(overload.col.all())
	t.Logf("goodput: control=%.0fMB overload=%.0fMB (%.2fx)", gControl/1e6, gOverload/1e6, gOverload/gControl)
	if gOverload < 1.5*gControl {
		t.Errorf("goodput %.0fMB < 1.5x control %.0fMB", gOverload/1e6, gControl/1e6)
	}

	// Fairness: per-steady-tenant completion ratio (deadline-met jobs
	// over submission attempts).
	doneByTenant := map[string]float64{}
	for _, r := range overload.col.all() {
		if r.Err == nil && !r.Late {
			doneByTenant[r.Job.Tenant]++
		}
	}
	var ratios []float64
	for ti := 0; ti < 4; ti++ {
		tenant := fmt.Sprintf("steady-%d", ti)
		ratio := doneByTenant[tenant] / float64(overload.attempts[tenant])
		ratios = append(ratios, ratio)
		if ratio < 0.5 {
			t.Errorf("tenant %s completion ratio %.2f < 0.5 of its demand", tenant, ratio)
		}
	}
	if jain := JainIndex(ratios); jain < 0.9 {
		t.Errorf("Jain index over steady tenants = %.3f < 0.9 (ratios %v)", jain, ratios)
	}
	if doneByTenant["flash"] == 0 {
		t.Error("flash tenant fully starved; fairness should leave it the residual capacity")
	}

	// Queue delay: the control's grows across the burst, the overload
	// run's stays bounded near the CoDel target.
	cm, om := quarterMeans(control.col.all()), quarterMeans(overload.col.all())
	t.Logf("mean queue delay by quarter: control=%v overload=%v", cm, om)
	if !(cm[2] > cm[1] && cm[1] > cm[0]) {
		t.Errorf("control delay should grow through the burst: %v", cm)
	}
	oMax := 0.0
	for _, v := range om {
		if v > oMax {
			oMax = v
		}
	}
	if cm[2] < 3*oMax {
		t.Errorf("control Q3 delay %.1fs not >> overload max quarter %.1fs", cm[2], oMax)
	}
	ost := overload.s.Stats()
	if ost.QueueDelayP99 >= synthSlack {
		t.Errorf("overload p99 admitted delay %.1fs not bounded below the %gs slack", ost.QueueDelayP99, synthSlack)
	}

	// The control mechanisms actually fired.
	if ost.Shed == 0 {
		t.Error("overload run shed nothing")
	}
	if ost.QueueFullRejects+ost.TenantQuotaRejects == 0 {
		t.Error("overload run never exerted backpressure")
	}
	cst := control.s.Stats()
	if cst.Expired == 0 {
		t.Error("control run expired nothing; the trace is not overloading it")
	}
}

// synthSummary renders one run as a stable string for the determinism
// regression (sorted iteration everywhere).
func synthSummary(seed int64) string {
	run := newSynthRun(flashCrowdTrace(seed), overloadTune)
	run.drive()
	st := run.s.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "goodput=%.0f done=%d failed=%d expired=%d shed=%d late=%d qfull=%d quota=%d p99=%.3f\n",
		goodput(run.col.all()), st.Done, st.Failed, st.Expired, st.Shed, st.Late,
		st.QueueFullRejects, st.TenantQuotaRejects, st.QueueDelayP99)
	perTenant := map[string][2]int64{}
	for _, r := range run.col.all() {
		c := perTenant[r.Job.Tenant]
		c[0]++
		if r.Err == nil {
			c[1]++
		}
		perTenant[r.Job.Tenant] = c
	}
	tenants := make([]string, 0, len(perTenant))
	for tn := range perTenant {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		fmt.Fprintf(&b, "%s results=%d done=%d attempts=%d rejects=%d\n",
			tn, perTenant[tn][0], perTenant[tn][1], run.attempts[tn], run.rejects[tn])
	}
	return b.String()
}

// TestOverloadDeterminism mirrors the chaos determinism regression: the
// same seed must reproduce the whole overload run byte-for-byte —
// shedding, backpressure, fairness, and per-tenant outcomes included.
func TestOverloadDeterminism(t *testing.T) {
	a, b := synthSummary(7), synthSummary(7)
	if a != b {
		t.Fatalf("overload replay diverged for one seed:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if synthSummary(8) == a {
		t.Fatal("different seeds produced identical summaries; the trace ignores its seed")
	}
}

// ---- unit tests for the control mechanisms ----------------------------

func TestCodelShedsOnStandingDelay(t *testing.T) {
	c := newCodel(1.0, 0.5)
	// A single spike is absorbed: EWMA primed at 5 > target, but the
	// next fast samples pull it back down.
	if shed, _ := c.onDequeue(0.1); shed {
		t.Fatal("shed a fast job on a fresh queue")
	}
	// Standing delay: repeated slow samples must start shedding.
	shedCount := 0
	for i := 0; i < 10; i++ {
		if shed, after := c.onDequeue(5); shed {
			shedCount++
			if after <= 0 {
				t.Fatal("retry-after hint not populated")
			}
		}
	}
	if shedCount < 8 {
		t.Fatalf("standing 5s delay against 1s target shed only %d/10", shedCount)
	}
	// A slow job during recovery is spared once the EWMA halves.
	for i := 0; i < 20; i++ {
		c.onDequeue(0.01)
	}
	if shed, _ := c.onDequeue(1.5); shed {
		t.Fatal("kept shedding after the standing delay cleared (no hysteresis exit)")
	}
}

func TestShedErrorShape(t *testing.T) {
	err := error(&ShedError{RetryAfter: 2.5})
	if !errors.Is(err, ErrShed) {
		t.Fatal("ShedError does not match ErrShed")
	}
	var se *ShedError
	if !errors.As(err, &se) || se.RetryAfter != 2.5 {
		t.Fatalf("retry-after lost: %v", err)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	b := newBrownout(0.7) // exits at 0.35
	if b.observe(0.5) {
		t.Fatal("brownout below enter threshold")
	}
	if !b.observe(0.8) {
		t.Fatal("no brownout above enter threshold")
	}
	if !b.observe(0.5) {
		t.Fatal("brownout exited above the exit threshold (no hysteresis)")
	}
	if b.observe(0.2) {
		t.Fatal("brownout survived below exit threshold")
	}
}

// waitFor polls a condition with a real-time deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedExec blocks a designated job until released, then serves
// everything instantly — it pins a worker so tests can pile up a queue.
type gatedExec struct {
	gate chan struct{}
}

func (e *gatedExec) Execute(j Job, r core.Route) (float64, error) {
	if j.Name == "blocker" {
		<-e.gate
	}
	return 0.01, nil
}

func TestBrownoutShedsOptionalWork(t *testing.T) {
	exec := &gatedExec{gate: make(chan struct{})}
	planner := &staticPlanner{route: core.ViaRoute(scenario.UAlberta)}
	clock := &vclock{}
	s := New(Config{
		Workers: 1, Executor: exec, Planner: planner,
		QueueLimit: 10, CacheTTL: 1e9,
		Now: clock.now, Sleep: func(float64) {},
	})
	s.Start()
	defer s.Close()

	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P1", Name: "blocker", Size: 1e3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	// Pile up 8 small jobs: occupancy 0.8 ≥ brownoutEnter ⇒ brownout.
	for i := 0; i < 8; i++ {
		if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P2", Name: fmt.Sprintf("small-%d", i), Size: 1e3}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Stats().BrownoutActive {
		t.Fatal("queue 80% full but brownout inactive")
	}
	close(exec.gate)
	s.Drain()

	st := s.Stats()
	if st.BrownoutDirect == 0 {
		t.Error("no small jobs skipped planning during brownout")
	}
	// The blocker (pre-brownout, provider P1) planned, and the first P2
	// job dequeued after draining ended the brownout planned and cached
	// the route for the rest; the jobs before it would each have missed
	// the cache, but brownout sent them direct without a probe.
	if got := planner.planCalls(); got != 2 {
		t.Errorf("planner called %d times, want 2 (brownout must shed probes)", got)
	}
	if st.BrownoutEntries == 0 {
		t.Error("no brownout transition recorded")
	}
}

func TestBrownoutServesStaleCache(t *testing.T) {
	exec := &gatedExec{gate: make(chan struct{})}
	planner := &staticPlanner{route: core.ViaRoute(scenario.UAlberta)}
	clock := &vclock{}
	s := New(Config{
		Workers: 1, Executor: exec, Planner: planner,
		QueueLimit: 10, CacheTTL: 5,
		Now: clock.now, Sleep: func(float64) {},
	})
	s.Start()
	defer s.Close()

	// Seed the cache for the big-file key at t=0.
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P", Name: "seed", Size: 100e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if got := planner.planCalls(); got != 1 {
		t.Fatalf("seed should have planned once, got %d", got)
	}
	clock.advance(10) // entry now expired

	// Enter brownout under a blocker.
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P1", Name: "blocker", Size: 1e3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	for i := 0; i < 8; i++ {
		if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P", Name: fmt.Sprintf("big-%d", i), Size: 100e6}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Stats().BrownoutActive {
		t.Fatal("brownout inactive")
	}
	close(exec.gate)
	s.Drain()

	st := s.Stats()
	if st.StaleServes == 0 {
		t.Error("expired cache entry not served stale during brownout")
	}
	// The big jobs re-used the stale decision instead of re-probing:
	// seed + blocker + the first job dequeued after draining ended the
	// brownout (it re-probed the expired key the normal way, and the
	// rest hit the refreshed entry).
	if got := planner.planCalls(); got != 3 {
		t.Errorf("planner called %d times, want 3 (stale entries must suppress re-probes)", got)
	}
}

// hedgeExec scripts a hedged executor: detours take detourSec unless
// hedged, in which case the hedge wins at hedgeSec.
type hedgeExec struct {
	mu        sync.Mutex
	hedged    int
	detourSec float64
	hedgeSec  float64
}

func (e *hedgeExec) Execute(j Job, r core.Route) (float64, error) { return e.detourSec, nil }
func (e *hedgeExec) ExecuteResumable(j Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	return e.detourSec, nil
}
func (e *hedgeExec) ExecuteHedged(j Job, r core.Route, budget float64, ck *core.Checkpoint) (float64, core.Route, bool, bool, error) {
	e.mu.Lock()
	e.hedged++
	e.mu.Unlock()
	return e.hedgeSec, core.DirectRoute, true, true, nil
}

func TestHedgeBudgetAndCap(t *testing.T) {
	// start runs a one-worker scheduler over a fresh scripted executor;
	// submit runs one job to completion.
	start := func(queueLimit int) (*Scheduler, *hedgeExec, *collector, func(string)) {
		exec := &hedgeExec{detourSec: 2, hedgeSec: 0.5}
		planner := &staticPlanner{route: core.ViaRoute(scenario.UAlberta)}
		clock := &vclock{}
		col := &collector{}
		s := New(Config{
			Workers: 1, Executor: exec, Planner: planner,
			QueueLimit: queueLimit, CacheTTL: 1e9, MaxAttempts: 1,
			Now: clock.now, Sleep: func(float64) {},
			OnResult: col.add,
		})
		s.Start()
		t.Cleanup(s.Close)
		return s, exec, col, func(name string) {
			if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P", Name: name, Size: 1e6}); err != nil {
				t.Fatal(err)
			}
			s.Drain()
		}
	}

	// QueueLimit 0 leaves the overload stack off: no hedge launches,
	// however much latency history the route has.
	s, exec, _, submit := start(0)
	for i := 0; i < 8; i++ {
		submit(fmt.Sprintf("off-%d", i))
	}
	if got := s.Stats().Hedges; got != 0 || exec.hedged != 0 {
		t.Fatalf("overload stack off: %d hedges, executor saw %d hedged calls; want none", got, exec.hedged)
	}

	s, exec, col, submit := start(10)
	// First four jobs: the detour route has fewer than hedgeMinSamples
	// transfers of history, so no hedge can be priced.
	for i := 1; i <= hedgeMinSamples; i++ {
		submit(fmt.Sprintf("warm-%d", i))
	}
	if got := s.Stats().Hedges; got != 0 {
		t.Fatalf("hedged before MinSamples: %d", got)
	}
	// Fifth job: budget available, hedge launches and wins.
	submit("hedge-me")
	st := s.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	results := col.all()
	last := results[len(results)-1]
	if !last.Hedged || !last.HedgeWon || last.Route.Kind != core.Direct {
		t.Fatalf("winning hedge not reflected in result: %+v", last)
	}
	// Cap: with 6 submissions and a 0.1 cap, one hedge exhausts the
	// budget — the sixth job must run unhedged.
	submit("capped")
	if got := s.Stats().Hedges; got != 1 {
		t.Fatalf("hedge cap leaked: %d hedges after cap", got)
	}
	if got := exec.hedged; got != 1 {
		t.Fatalf("executor saw %d hedged calls, want 1", got)
	}
}

// integrityExec fails each job's first attempt with a digest mismatch,
// as a poisoned resumed session would, then succeeds.
type integrityExec struct {
	mu    sync.Mutex
	tried map[string]bool
}

func (e *integrityExec) Execute(j Job, r core.Route) (float64, error) { return 1, nil }
func (e *integrityExec) ExecuteResumable(j Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	e.mu.Lock()
	first := !e.tried[j.Name]
	e.tried[j.Name] = true
	e.mu.Unlock()
	if first {
		ck.DiscardSession()
		return 0, Transient(fmt.Errorf("synthetic corrupt resume: %w", core.ErrIntegrity))
	}
	return 1, nil
}

func TestIntegrityMismatchRetried(t *testing.T) {
	exec := &integrityExec{tried: map[string]bool{}}
	planner := &staticPlanner{route: core.DirectRoute}
	col := &collector{}
	s := New(Config{
		Workers: 1, Executor: exec, Planner: planner,
		Sleep:    func(float64) {},
		OnResult: col.add,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: "c", Provider: "P", Name: "f.bin", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	res := col.all()[0]
	if res.Err != nil {
		t.Fatalf("corrupted resume not recovered: %v", res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (fail, then clean retry)", res.Attempts)
	}
	if got := s.Stats().IntegrityRetries; got != 1 {
		t.Fatalf("IntegrityRetries = %d, want 1", got)
	}
}

// pinDetour is a planner that always picks the UAlberta detour, with
// the full candidate set available for failover.
func pinDetour() Planner {
	return PlannerFunc(func(c, p string, s float64) (core.Route, []core.Route, error) {
		return core.ViaRoute(scenario.UAlberta), scenario.Routes(), nil
	})
}

// TestSimHedgedTransfer runs the hedge race on the real simulated
// topology: four warm-up transfers teach the scheduler the healthy
// detour's pace, then the detour's first-hop link degrades to a crawl
// and a big job's detour attempt blows its latency budget. The direct
// hedge must launch, win, and kill the crawling primary — whose partial
// bytes show up as rewritten work.
func TestSimHedgedTransfer(t *testing.T) {
	w := scenario.Build(5)
	exec := NewSimExecutor(w)
	defer exec.Close()
	// The detour's first hop (CANARIE Vancouver–Edmonton) drops to 3% of
	// its capacity at t=100 and never recovers.
	faults.NewInjector(w, 5, faults.Spec{
		Kind: faults.LinkDegrade, From: "vncv1", To: "edmn1",
		Start: 100, Duration: 1e9, CapacityFactor: 0.03,
	})
	col := &collector{}
	s := New(Config{
		Workers: 1, Executor: exec, Planner: pinDetour(),
		MaxAttempts: 1, QueueLimit: 10,
		Now:      exec.VirtualNow,
		Sleep:    exec.SleepVirtual,
		OnResult: col.add,
	})
	s.Start()
	defer s.Close()

	for i := 0; i < hedgeMinSamples; i++ {
		if err := s.Submit(Job{
			Tenant: "t", Client: scenario.UBC, Provider: scenario.GoogleDrive,
			Name: fmt.Sprintf("warm-%d.bin", i), Size: 5e6,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	for _, r := range col.all() {
		if r.Err != nil {
			t.Fatalf("warm-up failed: %v", r.Err)
		}
		if r.Hedged {
			t.Fatal("warm-up hedged before the budget had samples")
		}
	}
	// Jump past the degrade onset, then send the job that will stall.
	if now := exec.VirtualNow(); now < 101 {
		exec.SleepVirtual(101 - now)
	}
	if err := s.Submit(Job{
		Tenant: "t", Client: scenario.UBC, Provider: scenario.GoogleDrive,
		Name: "stalled.bin", Size: 100e6,
	}); err != nil {
		t.Fatal(err)
	}
	s.Drain()

	results := col.all()
	res := results[len(results)-1]
	if res.Err != nil {
		t.Fatalf("hedged job failed: %v", res.Err)
	}
	if !res.Hedged || !res.HedgeWon {
		t.Fatalf("hedge did not launch and win: hedged=%v won=%v", res.Hedged, res.HedgeWon)
	}
	if res.Route != core.DirectRoute {
		t.Fatalf("winning route = %s, want Direct", res.Route)
	}
	// The killed primary's partial progress is charged as rewritten.
	if res.Rewritten == 0 {
		t.Error("no rewritten bytes accounted for the cancelled primary")
	}
	st := s.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestSimHedgeCommitsUnderJobKey lets the direct hedge win a race. For
// a journaled job its commit must carry the job's idempotency key, so a
// crash-replayed attempt is answered from the provider's attempt table
// instead of committing again. A job without a key races under one the
// race names, and gets its empty key back; either way the object is
// committed once.
func TestSimHedgeCommitsUnderJobKey(t *testing.T) {
	for _, key := range []string{"keyed#1", ""} {
		w := scenario.Build(5)
		exec := NewSimExecutor(w)
		faults.NewInjector(w, 5, faults.Spec{
			Kind: faults.LinkDegrade, From: "vncv1", To: "edmn1",
			Start: 1, Duration: 1e9, CapacityFactor: 0.03,
		})
		exec.SleepVirtual(2)
		job := Job{Tenant: "t", Client: scenario.UBC, Provider: scenario.GoogleDrive, Name: "keyed.bin", Size: 50e6}
		ck := &core.Checkpoint{AttemptID: key}
		_, route, launched, won, err := exec.ExecuteHedged(job, core.ViaRoute(scenario.UAlberta), 20, ck)
		exec.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !launched || !won || route != core.DirectRoute {
			t.Fatalf("key %q: hedge launched=%v won=%v route=%s, want a winning direct hedge", key, launched, won, route)
		}
		store := w.Services[scenario.GoogleDrive].Store
		if key != "" {
			if _, ok := store.Replayed(key, job.Name); !ok {
				t.Error("the winning hedge did not commit under the job's key")
			}
		}
		if ck.AttemptID != key {
			t.Errorf("key %q: the race left the checkpoint keyed %q", key, ck.AttemptID)
		}
		if n := store.Commits(job.Name); n != 1 {
			t.Errorf("key %q: %d commits, want 1", key, n)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); j < 0.999 {
		t.Fatalf("equal shares: %v", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); j > 0.26 {
		t.Fatalf("one-taker: %v, want ~0.25", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Fatalf("empty: %v", j)
	}
}
