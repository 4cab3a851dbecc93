// Package detournet's root benchmark harness regenerates every table and
// figure of the paper (printed once per benchmark, so
// `go test -bench=. -benchmem` output doubles as the reproduction
// record) and runs the ablation studies listed in DESIGN.md §5.
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

	"detournet/internal/cloudsim"
	"detournet/internal/core"
	"detournet/internal/detourselect"
	"detournet/internal/experiments"
	"detournet/internal/fileutil"
	"detournet/internal/fluid"
	"detournet/internal/measure"
	"detournet/internal/overlay"
	"detournet/internal/replay"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/sdk"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/telemetry"
	"detournet/internal/topology"
	"detournet/internal/transport"
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
		s := experiments.Run(experiments.Default())
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

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPipelinedRelay compares the paper's store-and-forward
// detour with the pipelined relay it leaves as future work, on the UBC →
// Google Drive 100 MB case.
func BenchmarkAblationPipelinedRelay(b *testing.B) {
	var saf, pipe float64
	for i := 0; i < b.N; i++ {
		w := scenario.Build(2015)
		w.RunWorkload("ablation-pipe", func(p *simproc.Proc) {
			dc := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
			r1, err := dc.Upload(p, scenario.GoogleDrive, "saf.bin", 100*fileutil.MB, "")
			if err != nil {
				b.Error(err)
				return
			}
			r2, err := dc.UploadPipelined(p, scenario.GoogleDrive, "pipe.bin", 100*fileutil.MB, "", 4<<20)
			if err != nil {
				b.Error(err)
				return
			}
			saf, pipe = r1.Total, r2.Total
		})
	}
	printOnce("ablation-pipe", fmt.Sprintf(
		"Ablation: store-and-forward %.1f s vs pipelined %.1f s (UBC->GoogleDrive 100MB, %.2fx)",
		saf, pipe, saf/pipe))
	b.ReportMetric(saf/pipe, "pipeline-speedup")
}

// BenchmarkAblationRsyncVsRaw quantifies what the rsync delta machinery
// buys when a basis exists: a re-sync after a small edit versus a full
// push (the paper deletes the basis, so its detours always pay the full
// cost — this measures what they left on the table for re-uploads).
func BenchmarkAblationRsyncVsRaw(b *testing.B) {
	var full, delta float64
	for i := 0; i < b.N; i++ {
		w := scenario.Build(2015)
		w.RunWorkload("ablation-rsync", func(p *simproc.Proc) {
			data := fileutil.NewWithData("resync.bin", 8<<20, 7).Data
			cl := rsyncx.NewClient(w.Net, scenario.UBC, scenario.UAlberta)
			t0 := p.Now()
			if err := cl.Push(p, "resync.bin", data); err != nil {
				b.Error(err)
				return
			}
			full = float64(p.Now() - t0)
			data[1000] ^= 0xff // one-byte edit
			t0 = p.Now()
			if err := cl.Push(p, "resync.bin", data); err != nil {
				b.Error(err)
				return
			}
			delta = float64(p.Now() - t0)
		})
	}
	printOnce("ablation-rsync", fmt.Sprintf(
		"Ablation: full rsync push %.2f s vs delta re-sync %.2f s (8MB, 1-byte edit, %.0fx)",
		full, delta, full/delta))
	b.ReportMetric(full/delta, "delta-speedup")
}

// BenchmarkAblationChunkSize sweeps the provider upload chunk size on
// the fast, long-RTT UMich → Google Drive path, where each chunk's
// request/response round trips are a visible fraction of the transfer —
// the knob behind the providers' differing per-chunk overheads.
func BenchmarkAblationChunkSize(b *testing.B) {
	chunks := []float64{1 << 20, 4 << 20, 8 << 20, 16 << 20}
	times := make([]float64, len(chunks))
	for i := 0; i < b.N; i++ {
		for ci, chunk := range chunks {
			w := scenario.Build(2015)
			w.RunWorkload("ablation-chunk", func(p *simproc.Proc) {
				client := w.NewSDKClientWithChunk(scenario.UMich, scenario.GoogleDrive, chunk)
				t0 := p.Now()
				if _, err := client.Upload(p, "chunk.bin", 60*fileutil.MB, ""); err != nil {
					b.Error(err)
					return
				}
				times[ci] = float64(p.Now() - t0)
				client.Close()
			})
		}
	}
	out := "Ablation: UMich->GoogleDrive 60MB upload time by chunk size:"
	for ci, chunk := range chunks {
		out += fmt.Sprintf("  %dMiB=%.1fs", int(chunk)>>20, times[ci])
	}
	printOnce("ablation-chunk", out)
	b.ReportMetric(times[0]/times[len(times)-1], "small-vs-large-chunk")
}

// BenchmarkAblationSelector measures the probe-based selector's accuracy
// against the measured-best oracle across all nine client×provider pairs.
func BenchmarkAblationSelector(b *testing.B) {
	var accuracy float64
	for i := 0; i < b.N; i++ {
		agree, total := 0, 0
		for _, client := range scenario.Clients {
			for _, provider := range scenario.ProviderNames {
				w := scenario.Build(2015)
				w.RunWorkload("ablation-selector", func(p *simproc.Proc) {
					direct := w.NewSDKClient(client, provider)
					defer direct.Close()
					detours := map[string]*core.DetourClient{}
					for _, dtn := range scenario.DTNs {
						detours[dtn] = w.NewDetourClient(client, dtn)
					}
					chosen, _, err := detourselect.NewSelector().Choose(p, direct, detours, provider, 60*fileutil.MB)
					if err != nil {
						b.Error(err)
						return
					}
					best := core.DirectRoute
					bestT := 0.0
					for ri, route := range scenario.Routes() {
						f := fileutil.New(fmt.Sprintf("oracle-%d.bin", ri), 60*fileutil.MB, int64(ri))
						rep, err := core.Upload(p, route, direct, detours, provider, f.Name, f.Size, f.MD5)
						if err != nil {
							b.Error(err)
							return
						}
						if ri == 0 || rep.Total < bestT {
							best, bestT = route, rep.Total
						}
					}
					total++
					if chosen == best {
						agree++
					}
				})
			}
		}
		accuracy = float64(agree) / float64(total)
	}
	printOnce("ablation-selector", fmt.Sprintf(
		"Ablation: probe-based selector matches the measured-best route on %.0f%% of the 9 pairs (60MB)",
		accuracy*100))
	b.ReportMetric(accuracy, "selector-accuracy")
}

// BenchmarkAblationKHop compares overlay detours with 0, 1, and 2
// intermediate hops on a topology where only a two-hop relay finds the
// fast path — the generalization beyond the paper's single extra hop.
func BenchmarkAblationKHop(b *testing.B) {
	times := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, k := range []int{0, 1, 2} {
			eng := simclock.NewEngine()
			r := simproc.New(eng)
			g := topology.New(fluid.New(eng))
			hosts := []string{"a", "m1", "m2", "d"}
			for _, h := range hosts {
				g.MustAddNode(&topology.Node{Name: h, Kind: topology.Host, RespondsICMP: true})
			}
			// Only the chain a->m1->m2->d is fast.
			fast := topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.005}
			slow := topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.004}
			g.MustConnect("a", "m1", fast)
			g.MustConnect("m1", "m2", fast)
			g.MustConnect("m2", "d", fast)
			g.MustConnect("a", "d", slow)
			g.MustConnect("a", "m2", slow)
			g.MustConnect("m1", "d", slow)
			tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
			for _, h := range hosts {
				overlay.NewDaemon(tn, h).Start()
			}
			mesh := overlay.NewMesh(tn, "a", hosts)
			mesh.MaxIntermediates = k
			kk := k
			r.Go("khop", func(p *simproc.Proc) {
				if err := mesh.ProbeAll(p); err != nil {
					b.Error(err)
					return
				}
				_, sec, err := mesh.Send(p, "a", "d", 30e6)
				if err != nil {
					b.Error(err)
					return
				}
				times[kk] = sec
			})
			r.RunUntil(simclock.Time(1e6))
		}
	}
	printOnce("ablation-khop", fmt.Sprintf(
		"Ablation: overlay 30MB a->d with k intermediates: k=0 %.1fs, k=1 %.1fs, k=2 %.1fs",
		times[0], times[1], times[2]))
	b.ReportMetric(times[0]/times[2], "k2-speedup")
}

// BenchmarkAblationScienceDMZ reproduces the Science DMZ argument the
// paper cites (Dart et al., SC'13): a stateful campus firewall caps each
// connection at a fraction of the wire speed, and a DTN placed in a
// firewall-free Science DMZ restores throughput — a detour even when
// raw path bandwidths are identical.
func BenchmarkAblationScienceDMZ(b *testing.B) {
	var direct, dmz float64
	for i := 0; i < b.N; i++ {
		eng := simclock.NewEngine()
		r := simproc.New(eng)
		g := topology.New(fluid.New(eng))
		for _, n := range []string{"host", "fw", "border", "dtn", "dc"} {
			g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
		}
		// The firewall inspects every flow at 1 MB/s; wires are 10 MB/s.
		lan := topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.0005}
		wan := topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.015}
		fwSpec := topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.001, PerFlowCapBps: 1e6}
		g.MustConnect("host", "fw", lan)
		g.MustConnect("fw", "border", fwSpec)
		// The DTN sits in the Science DMZ: reachable from inside without
		// crossing the firewall, and facing the WAN directly.
		g.MustConnect("host", "dtn", lan)
		g.MustConnect("dtn", "border", lan)
		g.MustConnect("border", "dc", wan)
		// Pin routes: ordinary traffic must cross the firewall.
		g.MustSetOverride("host", "fw", "border", "dc")

		tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
		svc := cloudsim.NewService(eng, tn, "GoogleDrive", "dc", cloudsim.GoogleDrive)
		svc.Start(tn)
		daemon := rsyncx.NewDaemon(tn, "dtn")
		daemon.Start()
		agent := core.NewAgent(tn, "dtn", daemon)
		creds := sdk.Register(svc, "dtn-agent", "s")
		agent.RegisterProvider(sdk.NewGoogleDrive(eng, tn, "dtn", "dc", creds, sdk.Options{}))
		agent.Start()

		done := false
		r.Go("dmz", func(p *simproc.Proc) {
			creds := sdk.Register(svc, "host-app", "s")
			client := sdk.NewGoogleDrive(eng, tn, "host", "dc", creds, sdk.Options{})
			rep1, err := core.DirectUpload(p, client, "fw.bin", 50e6, "")
			if err != nil {
				b.Error(err)
				return
			}
			dc := core.NewDetourClient(tn, "host", "dtn")
			rep2, err := dc.Upload(p, "GoogleDrive", "dmz.bin", 50e6, "")
			if err != nil {
				b.Error(err)
				return
			}
			direct, dmz = rep1.Total, rep2.Total
			client.Close()
			done = true
		})
		r.RunUntil(simclock.Time(1e6))
		if !done {
			b.Fatal("workload did not finish")
		}
	}
	printOnce("ablation-dmz", fmt.Sprintf(
		"Ablation: 50MB through campus firewall %.1f s vs via Science-DMZ DTN %.1f s (%.1fx)",
		direct, dmz, direct/dmz))
	b.ReportMetric(direct/dmz, "dmz-speedup")
}

// BenchmarkExtensionWorkloadStudy replays the personal-cloud workload
// through the three routing policies on the paper's strongest detour
// case (Purdue → Google Drive) and reports the adaptive policy's
// speedup over always-direct.
func BenchmarkExtensionWorkloadStudy(b *testing.B) {
	var direct, adaptive float64
	var out string
	for i := 0; i < b.N; i++ {
		results, err := experiments.WorkloadStudy(experiments.Quick(), scenario.Purdue, scenario.GoogleDrive, 12)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case experiments.PolicyDirect:
				direct = r.MeanTransfer
			case experiments.PolicyAdaptive:
				adaptive = r.MeanTransfer
			}
		}
		out = experiments.FormatWorkloadStudy(scenario.Purdue, scenario.GoogleDrive, results)
	}
	printOnce("ext-workload", out)
	b.ReportMetric(direct/adaptive, "adaptive-speedup")
}

// BenchmarkExtensionDownloadGrid measures the reverse direction on the
// UBC ↔ Google Drive pair — the operation the paper's SDKs expose but
// its evaluation leaves unmeasured. Downloads ride the reverse routes
// (which do not carry the PacificWave pin), so direct wins here.
func BenchmarkExtensionDownloadGrid(b *testing.B) {
	var table string
	for i := 0; i < b.N; i++ {
		w := scenario.Build(2015)
		g := measure.RunGrid(w, measure.GridSpec{
			Client:    scenario.UBC,
			Provider:  scenario.GoogleDrive,
			Direction: measure.Download,
			SizesMB:   []int{10, 40, 100},
			Runs:      3, Keep: 2, Seed: 2015,
		})
		table = "Extension: UBC<-GoogleDrive download times\n" + g.FormatTable()
	}
	printOnce("ext-download", table)
}

// BenchmarkExtensionSensitivity sweeps the PacificWave hand-off capacity
// to locate the crossover where the paper's headline detour stops
// paying — quantifying how "transitory" the artifact is.
func BenchmarkExtensionSensitivity(b *testing.B) {
	var out string
	var crossover float64
	for i := 0; i < b.N; i++ {
		caps := []float64{0.6, 1.25, 2.5, 4, 6, 8}
		points := experiments.SensitivityPacificWave(experiments.Quick(), caps)
		out = experiments.FormatSensitivity(points)
		crossover = 0
		for _, pt := range points {
			if !pt.DetourWins() {
				crossover = pt.PacificWaveMBps
				break
			}
		}
	}
	printOnce("ext-sensitivity", out)
	b.ReportMetric(crossover, "crossover-MBps")
}

// BenchmarkExtensionContention measures concurrent detours sharing the
// UAlberta DTN.
func BenchmarkExtensionContention(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		results, err := experiments.ContentionStudy(experiments.Quick(), [][]string{
			{scenario.UBC},
			{scenario.UBC, scenario.Purdue},
			{scenario.UBC, scenario.Purdue, scenario.UCLA},
		})
		if err != nil {
			b.Fatal(err)
		}
		out = experiments.FormatContention(results)
	}
	printOnce("ext-contention", out)
}

// BenchmarkExtensionProviderPOP measures the paper's "providers may add
// additional POPs or gateways" remedy: a Google edge POP on the
// Vancouver exchange versus the pinned direct path and the UAlberta
// detour, for UBC's 100 MB upload.
func BenchmarkExtensionProviderPOP(b *testing.B) {
	var direct, detour, viaPOP float64
	for i := 0; i < b.N; i++ {
		w := scenario.Build(2015, scenario.WithGoogleVancouverPOP())
		w.StartGooglePOP()
		w.RunWorkload("pop-bench", func(p *simproc.Proc) {
			c := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
			rep, err := core.DirectUpload(p, c, "a.bin", 100*fileutil.MB, "")
			if err != nil {
				b.Error(err)
				return
			}
			direct = rep.Total
			c.Close()
			rep, err = w.NewDetourClient(scenario.UBC, scenario.UAlberta).
				Upload(p, scenario.GoogleDrive, "b.bin", 100*fileutil.MB, "")
			if err != nil {
				b.Error(err)
				return
			}
			detour = rep.Total
			pc := w.NewSDKClientVia(scenario.UBC, scenario.GooglePOPVancouver)
			rep, err = core.DirectUpload(p, pc, "c.bin", 100*fileutil.MB, "")
			if err != nil {
				b.Error(err)
				return
			}
			viaPOP = rep.Total
			pc.Close()
		})
	}
	printOnce("ext-pop", fmt.Sprintf(
		"Extension: UBC->GoogleDrive 100MB — direct %.1f s, UAlberta detour %.1f s, Vancouver POP %.1f s",
		direct, detour, viaPOP))
	b.ReportMetric(direct/viaPOP, "pop-speedup")
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
