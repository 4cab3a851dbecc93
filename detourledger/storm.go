package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/journal"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// storm-fleet is the full control plane (reroute, park, retry, journal,
// telemetry) under routing churn; its virtual metrics are deterministic
// and sched self time is a small share.
var stormFleetWorkload = &benchWorkload{
	name:          "storm-fleet",
	loop:          "open in virtual time: each job is submitted when the virtual clock reaches FleetJob.At, whatever the backlog",
	size:          "30 seeds per batch, each sched.RunTelemetry's 40-job 24 MB flash crowd through the reconvergence storm (1200 jobs)",
	quickSize:     "2 seeds per batch of the 40-job 24 MB flash crowd",
	seedsPerBatch: 30, quickSeedsPerBatch: 2,
	batchSeconds: 1.1,
	newRunner: func(quick bool) runner {
		if quick {
			return &stormFleet{perBatch: 2}
		}
		return &stormFleet{perBatch: 30}
	},
}

const (
	stormJobs = 40
	stormSize = 24e6
)

// stormSeed is one seed's world wired as sched.RunTelemetry wires it,
// built from the public constructors so the benchmark can put timing
// shims between the scheduler and the simulation.
type stormSeed struct {
	seed  int64
	w     *scenario.World
	inj   *faults.Injector
	exec  *sched.SimExecutor
	cj    *sched.ControlJournal
	trace []workload.FleetJob
}

// stormFleet replays RunTelemetry's flash crowd, one world per seed.
type stormFleet struct {
	perBatch int
	seeds    []*stormSeed

	submitted, notDone     int64
	latency, queueDelay    []float64
	feedLag                []float64
	okBytes, span          float64
	attempts, reroutes     int
	parked, rewritten      float64
	sizes                  float64
	cacheHits, cacheMiss   int64
	plans, untyped, nSeeds int
	journalBytes           int
	transitions, logLines  int
	events, reallocs       uint64
	violations             []string
}

func (p *stormFleet) setup(seed int64, _ *tracer) {
	p.seeds = p.seeds[:0]
	for k := 0; k < p.perBatch; k++ {
		s := seed + int64(k)
		w := scenario.Build(s, scenario.WithDynamicRouting())
		ss := &stormSeed{seed: s, w: w, inj: faults.NewInjector(w, s, faults.ChurnSchedule()...), exec: sched.NewSimExecutor(w)}
		var err error
		if ss.cj, _, err = sched.NewControlJournal(journal.NewMemDevice()); err != nil {
			panic(err) // a fresh in-memory device holds no records to reject
		}
		w.Services[scenario.GoogleDrive].Store.Quota = 2 * stormJobs * stormSize
		crowd, err := workload.NewFlashCrowd(
			workload.Phase{RatePerSec: 0.05, Seconds: 40},
			workload.Phase{RatePerSec: 0.5, Seconds: 120},
			workload.Phase{RatePerSec: 0.05},
		)
		if err != nil {
			panic(err)
		}
		ss.trace, err = workload.GenerateFleet(workload.FleetSpec{
			Jobs:      stormJobs,
			Clients:   []string{scenario.UBC, scenario.UAlberta},
			Providers: []string{scenario.GoogleDrive},
			Tenants:   []string{"telemetry"},
			Sizes:     workload.Fixed{Bytes: stormSize},
			Arrivals:  crowd,
			Prefix:    "tlm", PriorityLevels: 1,
		}, rand.New(rand.NewSource(s)))
		if err != nil {
			panic(err)
		}
		p.seeds = append(p.seeds, ss)
	}
}

func (p *stormFleet) run(tr *tracer) int {
	t0 := tr.start()
	jobs := 0
	for _, ss := range p.seeds {
		jobs += p.drive(ss, tr)
	}
	if tr != nil {
		shims := tr.sums["exec"] + tr.sums["plan"] + tr.sums["sleep"]
		tr.set("sched.self_us_per_job", float64(time.Since(t0)-shims)/1e3/float64(jobs))
		tr.set("sched.exec_us_per_job", float64(tr.sums["exec"])/1e3/float64(jobs))
	}
	return jobs
}

// stormShim is RunTelemetry's telemetryFeeder rebuilt outside package
// sched: it forwards Execute, ExecuteResumable, ExecuteRerouting, Plan
// and Sleep (and nothing else, so the scheduler sees the same executor
// capabilities), offers every new virtual time to the arrival feed, and
// notes when each job's latest attempt ended. In traced batches it also
// sums the wall time spent inside the simulation.
type stormShim struct {
	exec   *sched.SimExecutor
	feed   func(now float64)
	tr     *tracer
	plans  int
	doneAt map[string]float64
}

func (f *stormShim) executed(job string, t0 time.Time) {
	f.tr.sum("exec", t0)
	now := f.exec.VirtualNow()
	f.doneAt[job] = now
	f.feed(now)
}

func (f *stormShim) Execute(j sched.Job, r core.Route) (float64, error) {
	t0 := f.tr.start()
	sec, err := f.exec.Execute(j, r)
	f.executed(j.Name, t0)
	return sec, err
}

func (f *stormShim) ExecuteResumable(j sched.Job, r core.Route, ck *core.Checkpoint) (float64, error) {
	t0 := f.tr.start()
	sec, err := f.exec.ExecuteResumable(j, r, ck)
	f.executed(j.Name, t0)
	return sec, err
}

func (f *stormShim) ExecuteRerouting(j sched.Job, r core.Route, ck *core.Checkpoint, parkBudget float64) (float64, core.Route, int, float64, error) {
	t0 := f.tr.start()
	sec, final, nr, parked, err := f.exec.ExecuteRerouting(j, r, ck, parkBudget)
	f.executed(j.Name, t0)
	return sec, final, nr, parked, err
}

func (f *stormShim) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	f.plans++
	t0 := f.tr.start()
	route, cands, err := f.exec.Plan(client, provider, size)
	f.tr.sum("plan", t0)
	f.feed(f.exec.VirtualNow())
	return route, cands, err
}

func (f *stormShim) Sleep(sec float64) {
	t0 := f.tr.start()
	f.exec.SleepVirtual(sec)
	f.tr.sum("sleep", t0)
	f.feed(f.exec.VirtualNow())
}

// drive replays one seed's fleet as RunTelemetry does and checks it.
func (p *stormFleet) drive(ss *stormSeed, tr *tracer) int {
	shim := &stormShim{exec: ss.exec, tr: tr, doneAt: map[string]float64{}}
	var results []sched.Result
	s := sched.New(sched.Config{
		Workers:  1,
		Executor: shim, Planner: shim,
		MaxAttempts: 2,
		Reroute:     true,
		ParkBudget:  20,
		Journal:     ss.cj,
		Telemetry:   telemetry.NewRegistry(),
		Recorder:    telemetry.NewFlightRecorder(ss.exec.VirtualNow, 64, 6),
		Now:         ss.exec.VirtualNow,
		Sleep:       shim.Sleep,
		OnResult:    func(r sched.Result) { results = append(results, r) },
	})
	ss.w.RouteBus.Subscribe(func(ev bgppol.Event) {
		s.RouteEvent(sched.RouteEvent{
			Withdraw: ev.Kind == bgppol.EventWithdraw,
			DomainA:  ev.DomainA, DomainB: ev.DomainB,
			FromNode: ev.FromNode, ToNode: ev.ToNode,
			At: ev.At, ConvergedBy: ev.ConvergedBy,
		})
	})
	s.Start()

	// The feed runs on this goroutine between drains and on the worker
	// inside the shim; once the first job of a feed is submitted the
	// worker can run, so the two may overlap.
	var feedMu sync.Mutex
	i := 0
	shim.feed = func(now float64) {
		feedMu.Lock()
		defer feedMu.Unlock()
		for i < len(ss.trace) && ss.trace[i].At <= now {
			fj := ss.trace[i]
			i++
			p.feedLag = append(p.feedLag, now-fj.At)
			t0 := tr.start()
			err := s.Submit(sched.Job{
				Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
				Name: fj.Name, Size: fj.Size, Priority: fj.Priority,
			})
			tr.call("sched.submit", t0)
			if err != nil {
				p.violations = append(p.violations, fmt.Sprintf("seed %d: submit %s: %v", ss.seed, fj.Name, err))
			}
		}
	}
	shim.feed(ss.exec.VirtualNow())
	for {
		s.Drain()
		feedMu.Lock()
		more := i < len(ss.trace)
		var next float64
		if more {
			next = ss.trace[i].At
		}
		feedMu.Unlock()
		if !more {
			break
		}
		if now := ss.exec.VirtualNow(); next > now {
			t0 := tr.start()
			ss.exec.SleepVirtual(next - now)
			tr.sum("sleep", t0)
		}
		shim.feed(ss.exec.VirtualNow())
	}
	s.Drain()
	st := s.Stats()
	s.Close()
	ss.exec.Close()
	p.tally(ss, shim, st, results)
	return len(results)
}

// tally pools one seed's outcome and checks it: one result per
// submitted job, at most one commit per object, the provider quota
// never exceeded, and a typed cause on every failure.
func (p *stormFleet) tally(ss *stormSeed, shim *stormShim, st sched.Stats, results []sched.Result) {
	bad := func(format string, args ...any) {
		p.violations = append(p.violations, fmt.Sprintf("seed %d: ", ss.seed)+fmt.Sprintf(format, args...))
	}
	due := make(map[string]float64, len(ss.trace))
	for _, fj := range ss.trace {
		due[fj.Name] = fj.At
	}
	seen := make(map[string]int, len(results))
	store := ss.w.Services[scenario.GoogleDrive].Store
	for _, r := range results {
		name := r.Job.Name
		seen[name]++
		p.attempts += r.Attempts
		p.reroutes += r.Reroutes
		p.parked += r.Parked
		p.rewritten += r.Rewritten
		p.sizes += r.Job.Size
		p.queueDelay = append(p.queueDelay, r.QueueDelay)
		if c := store.Commits(name); c > 1 {
			bad("%s committed %d times", name, c)
		}
		if r.Err == nil {
			p.latency = append(p.latency, shim.doneAt[name]-due[name])
			p.okBytes += r.Job.Size
			if o, ok := store.Get(name); !ok || o.Size != r.Job.Size {
				bad("%s succeeded but the provider does not hold it", name)
			}
			continue
		}
		if sched.Classify(r.Err) == sched.FailUnknown {
			if selfDetour(r) {
				p.untyped++
				continue
			}
			bad("%s failed without a typed cause: %v", name, r.Err)
		}
	}
	for _, fj := range ss.trace {
		if seen[fj.Name] != 1 {
			bad("%s has %d results, want 1", fj.Name, seen[fj.Name])
		}
	}
	if store.Used() > store.Quota {
		bad("provider holds %.0f bytes over its %.0f quota", store.Used(), store.Quota)
	}

	p.nSeeds++
	p.submitted += st.Submitted
	p.notDone += st.Failed + st.Expired + st.Shed
	p.cacheHits += st.CacheHits
	p.cacheMiss += st.CacheMisses
	p.span += ss.exec.VirtualNow()
	p.plans += shim.plans
	p.journalBytes += ss.cj.DeviceSize()
	p.transitions += len(ss.inj.Transitions())
	p.logLines += ss.w.Trace.Len()
	p.events += ss.w.Eng.Processed()
	p.reallocs += ss.w.Graph.Fluid().Reallocations
}

// selfDetour recognises a known defect rather than hiding every untyped
// failure: a job whose client is itself a DTN can be rerouted "via"
// that same DTN, and the one-node hop-1 path fails with an error the
// executor does not classify.
func selfDetour(r sched.Result) bool {
	return slices.Contains(scenario.DTNs, r.Job.Client) &&
		strings.Contains(r.Err.Error(), "link path needs at least 2 nodes")
}

func (p *stormFleet) report(add func(string, metric)) []string {
	jobs := float64(p.submitted)
	n := int(p.submitted)
	add("success_frac", pooled(1-float64(p.notDone)/jobs, n))
	percentiles(add, "transfer_s", p.latency)
	add("goodput_mbps", pooled(p.okBytes/p.span/1e6, n))
	add("sched.attempts_per_job", pooled(float64(p.attempts)/jobs, n))
	add("sched.cache_hit_frac", pooled(float64(p.cacheHits)/float64(p.cacheHits+p.cacheMiss), n))
	add("sched.reroutes_per_job", pooled(float64(p.reroutes)/jobs, n))
	add("sched.park_s_per_job", pooled(p.parked/jobs, n))
	add("sched.plan_calls_per_job", pooled(float64(p.plans)/jobs, n))
	add("sched.untyped_fail_frac", pooled(float64(p.untyped)/jobs, n))
	percentiles(add, "sched.queue_delay_s", p.queueDelay)
	percentiles(add, "sched.feed_lag_s", p.feedLag)
	add("core.resent_frac", pooled(p.rewritten/p.sizes, n))
	add("journal.bytes_per_job", pooled(float64(p.journalBytes)/jobs, n))
	add("faults.transitions_per_seed", pooled(float64(p.transitions)/float64(p.nSeeds), p.nSeeds))
	add("tracelog.events_per_op", pooled(float64(p.logLines)/jobs, n))
	add("fluid.reallocs_per_op", pooled(float64(p.reallocs)/jobs, n))
	add("simclock.events_per_op", pooled(float64(p.events)/jobs, n))
	return p.violations
}
