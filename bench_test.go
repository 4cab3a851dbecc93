// Package detournet's root benchmark harness regenerates every table and
// figure of the paper (printed once per benchmark, so
// `go test -bench=. -benchmem` output doubles as the reproduction
// record) and times the simulator's hot paths. The ablation and
// extension studies of DESIGN.md §5 are `detourbench -experiment
// studies`, pinned by its golden.
//
// Benchmarks use the full measurement protocol (7 runs, mean of last 5,
// the paper's seven file sizes) at the committed seed; ns/op measures
// the cost of reproducing the experiment in the simulator, and custom
// metrics carry the headline scientific quantities (speedups, accuracy).
package detournet

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"detournet/internal/core"
	"detournet/internal/experiments"
	"detournet/internal/fileutil"
	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

var printed sync.Map

// printOnce emits an experiment's rendered output a single time per
// benchmark, independent of b.N.
func printOnce(key, text string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// benchPair reproduces one figure backed by a client→provider grid. It
// reports the simulation events one grid runs (events/op) next to its
// wall time.
func benchPair(b *testing.B, key, client, provider string, render func(*experiments.Suite) string) {
	b.Helper()
	var lastDirect, lastBest float64
	var events uint64
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Options: experiments.Default()}
		out := render(s)
		printOnce(key, out)
		pr := s.Pair(client, provider)
		events += pr.Events
		g := pr.Grid
		lastDirect = g.Cell(100, core.DirectRoute).Summary.Mean
		best := g.Fastest(100)
		lastBest = g.Cell(100, best).Summary.Mean
	}
	b.ReportMetric(lastDirect/lastBest, "speedup@100MB")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkFig2UBCGoogleDrive(b *testing.B) {
	benchPair(b, "fig2", scenario.UBC, scenario.GoogleDrive, (*experiments.Suite).Fig2)
}

func BenchmarkFig4UBCDropbox(b *testing.B) {
	benchPair(b, "fig4", scenario.UBC, scenario.Dropbox, (*experiments.Suite).Fig4)
}

func BenchmarkFig7PurdueGoogleDrive(b *testing.B) {
	benchPair(b, "fig7", scenario.Purdue, scenario.GoogleDrive, (*experiments.Suite).Fig7)
}

func BenchmarkFig8PurdueDropbox(b *testing.B) {
	benchPair(b, "fig8", scenario.Purdue, scenario.Dropbox, (*experiments.Suite).Fig8)
}

func BenchmarkFig9PurdueOneDrive(b *testing.B) {
	benchPair(b, "fig9", scenario.Purdue, scenario.OneDrive, (*experiments.Suite).Fig9)
}

func BenchmarkFig10UCLAGoogleDrive(b *testing.B) {
	benchPair(b, "fig10", scenario.UCLA, scenario.GoogleDrive, (*experiments.Suite).Fig10)
}

func BenchmarkFig11UCLADropbox(b *testing.B) {
	benchPair(b, "fig11", scenario.UCLA, scenario.Dropbox, (*experiments.Suite).Fig11)
}

func BenchmarkTableIIUBCGoogleDrive(b *testing.B) {
	benchPair(b, "table2", scenario.UBC, scenario.GoogleDrive, (*experiments.Suite).TableII)
}

func BenchmarkTableIIIPurdueGoogleDrive(b *testing.B) {
	benchPair(b, "table3", scenario.Purdue, scenario.GoogleDrive, (*experiments.Suite).TableIII)
}

func BenchmarkTableIRouteSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Options: experiments.Default()}
		printOnce("table1", s.TableI())
	}
}

func BenchmarkTableIVPurdueVariance(b *testing.B) {
	var stddev float64
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Options: experiments.Default()}
		printOnce("table4", s.TableIV())
		c := s.Pair(scenario.Purdue, scenario.OneDrive).Grid.Cell(100, core.DirectRoute)
		stddev = c.Summary.StdDev
	}
	b.ReportMetric(stddev, "direct-stddev@100MB")
}

func BenchmarkTableVGeoSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Options: experiments.Default()}
		printOnce("table5", s.TableV()+"\n"+s.Fig3())
	}
}

func BenchmarkFig5TracerouteUBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Options: experiments.Default()}
		printOnce("fig5", s.Fig5())
	}
}

func BenchmarkFig6TracerouteUAlberta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &experiments.Suite{Options: experiments.Default()}
		printOnce("fig6", s.Fig6())
	}
}

// --- Simulated processes (internal/simproc) ---

// BenchmarkProcSwitch measures the process switch every simulated
// transfer pays dozens of times: two processes ping-pong one message
// over two queues. One op is a round trip, so four switches between
// the engine and a process.
func BenchmarkProcSwitch(b *testing.B) {
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	ping, pong := simproc.NewQueue[int](r), simproc.NewQueue[int](r)
	r.Go("ping", func(p *simproc.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	r.Go("pong", func(p *simproc.Proc) {
		for i := 0; i < b.N; i++ {
			pong.Push(ping.Pop(p))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	r.Run()
}

// --- Scheduler control plane (internal/sched) ---

// schedBenchTrace is a fixed 512-job fleet trace shared by the drain
// benchmarks, generated once so trace synthesis stays off the clock.
var schedBenchTrace = func() []workload.FleetJob {
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    512,
		Clients: []string{scenario.UBC, scenario.Purdue, scenario.UCLA},
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		panic(err)
	}
	return trace
}()

// benchSchedulerDrain measures control-plane throughput — queue, caps,
// cache, and bookkeeping — with an executor that completes instantly,
// so jobs/s reflects scheduler overhead rather than transfer time.
func benchSchedulerDrain(b *testing.B, workers int) {
	b.Helper()
	exec := sched.ExecutorFunc(func(j sched.Job, r core.Route) (float64, error) {
		return j.Size / 10e6, nil
	})
	plan := sched.PlannerFunc(func(client, provider string, size float64) (core.Route, []core.Route, error) {
		return core.ViaRoute(scenario.UAlberta), scenario.Routes(), nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sched.New(sched.Config{
			Workers: workers, Executor: exec, Planner: plan,
			ProviderCap: -1, DTNCap: -1,
		})
		s.Start()
		for _, fj := range schedBenchTrace {
			if err := s.Submit(sched.Job{
				Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
				Name: fj.Name, Size: fj.Size, Priority: fj.Priority,
			}); err != nil {
				b.Fatal(err)
			}
		}
		s.Drain()
		s.Close()
		if st := s.Stats(); st.Done != int64(len(schedBenchTrace)) {
			b.Fatalf("done=%d, want %d", st.Done, len(schedBenchTrace))
		}
	}
	jobs := float64(b.N) * float64(len(schedBenchTrace))
	b.ReportMetric(jobs/b.Elapsed().Seconds(), "jobs/s")
}

func BenchmarkSchedulerDrain1Worker(b *testing.B)   { benchSchedulerDrain(b, 1) }
func BenchmarkSchedulerDrain8Workers(b *testing.B)  { benchSchedulerDrain(b, 8) }
func BenchmarkSchedulerDrain64Workers(b *testing.B) { benchSchedulerDrain(b, 64) }

// dispatchBenchJobs is a 25,000-job fleet trace over the three clients
// and every provider, built on first use so other tests never pay it.
var dispatchBenchJobs = sync.OnceValue(func() []sched.Job {
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:      25000,
		Clients:   []string{scenario.UBC, scenario.Purdue, scenario.UCLA},
		Providers: scenario.ProviderNames,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		panic(err)
	}
	jobs := make([]sched.Job, len(trace))
	for i, fj := range trace {
		jobs[i] = sched.Job{
			Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
			Name: fj.Name, Size: fj.Size, Priority: fj.Priority,
		}
	}
	return jobs
})

// BenchmarkSchedulerDispatch measures dispatch cost per job in the
// shape of the performance ledger's dispatch workload: the whole
// 25,000-job trace is queued before two workers start, with a metrics
// registry and a flight recorder attached and backoff sleeps free. The
// queue is deep when the workers pull from it, so its heap and the
// Drain wake-ups are on the clock, which the drain benchmarks (workers
// started first, nothing attached) do not show.
func BenchmarkSchedulerDispatch(b *testing.B) {
	jobs := dispatchBenchJobs()
	exec := sched.ExecutorFunc(func(j sched.Job, r core.Route) (float64, error) {
		return j.Size / 10e6, nil
	})
	plan := sched.PlannerFunc(func(client, provider string, size float64) (core.Route, []core.Route, error) {
		return core.ViaRoute(scenario.UAlberta), scenario.Routes(), nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sched.New(sched.Config{
			Workers: 2, Executor: exec, Planner: plan,
			Telemetry: telemetry.NewRegistry(),
			Recorder:  telemetry.NewFlightRecorder(nil, 32, 4),
			Sleep:     func(float64) {},
		})
		for _, j := range jobs {
			if err := s.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		s.Start()
		s.Drain()
		s.Close()
		if st := s.Stats(); st.Done != int64(len(jobs)) {
			b.Fatalf("done=%d, want %d", st.Done, len(jobs))
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(jobs))/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSchedulerRouteCacheHit measures the steady-state fast path:
// repeated traffic on an already-decided (client, provider, bucket) key.
func BenchmarkSchedulerRouteCacheHit(b *testing.B) {
	clock := 0.0
	c := sched.NewRouteCache(1e9, 1e9, func() float64 { return clock })
	k := sched.KeyFor(scenario.UBC, scenario.GoogleDrive, 100*fileutil.MB)
	c.Insert(k, core.ViaRoute(scenario.UAlberta), scenario.Routes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(k); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// --- Routing dynamics (internal/bgppol) ---

// BenchmarkBGPRoutesToMemoized measures the steady-state cost of a
// RoutesTo query on the paper's Gao–Rexford policy: after the first
// computation the per-destination result is memoized, so the fleet's
// repeated route checks (every reroute candidate scan hits this) pay a
// map lookup, not a BFS.
func BenchmarkBGPRoutesToMemoized(b *testing.B) {
	p := scenario.PaperPolicy()
	if _, err := p.RoutesTo("Google"); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RoutesTo("Google"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBGPRoutesToCold measures the same query when every iteration
// is preceded by a topology mutation (a peering flap), which invalidates
// the memo — the price a churning control plane pays per event.
func BenchmarkBGPRoutesToCold(b *testing.B) {
	p := scenario.PaperPolicy()
	for i := 0; i < b.N; i++ {
		if err := p.RemovePeer("Google", "CENIC"); err != nil {
			b.Fatal(err)
		}
		if err := p.AddPeer("Google", "CENIC"); err != nil {
			b.Fatal(err)
		}
		if _, err := p.RoutesTo("Google"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnReplay replays the full reconvergence storm (control +
// stack runs, the `detourbench -experiment churn` workload) once per
// iteration and reports the stack's survival rate over storm-touched
// transfers.
func BenchmarkChurnReplay(b *testing.B) {
	var v replay.ChurnVerdict
	for i := 0; i < b.N; i++ {
		v = replay.WriteChurn(io.Discard, 2015)
	}
	printOnce("churn", fmt.Sprintf(
		"Churn: storm touched %d transfers — control failed %.0f%%, stack survived %.0f%%, %.1f MB re-sent (budget %.1f MB)",
		v.Affected, 100*v.ControlFailRate(), 100*v.StackSurvivalRate(),
		v.ResentBytes/1e6, v.ResentBudget/1e6))
	b.ReportMetric(v.StackSurvivalRate(), "churn-survival")
}

// BenchmarkSchedulerRouteCacheMiss measures the miss path a first-seen
// key pays before probing even starts: the failed lookup plus the
// insert that builds the per-key bandit over the candidate routes.
func BenchmarkSchedulerRouteCacheMiss(b *testing.B) {
	clock := 0.0
	c := sched.NewRouteCache(1e9, 1e9, func() float64 { return clock })
	routes := scenario.Routes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sched.KeyFor(fmt.Sprintf("client-%d", i), scenario.GoogleDrive, 100*fileutil.MB)
		if _, ok := c.Lookup(k); ok {
			b.Fatal("unexpected hit")
		}
		c.Insert(k, core.ViaRoute(scenario.UAlberta), routes)
	}
}
