// Command detourd runs the transfer-scheduler control plane as a
// daemon against the simulated topology: it generates a multi-tenant
// fleet trace, admits it through per-tenant rate limits, drains it
// through the worker pool under per-provider and per-DTN concurrency
// caps, and logs periodic one-line status snapshots while it works —
// the operational mode the paper's per-invocation measurement programs
// stop short of.
//
// Usage:
//
//	detourd [-jobs 600] [-workers 8] [-seed 2015]
//	        [-provider-cap 4] [-dtn-cap 2] [-tenant-rate 0]
//	        [-stats 2s] [-chaos] [-overload]
//
// With -chaos, the canned fault schedule (see internal/faults) plays
// against the world while the trace drains: links flap and degrade,
// providers throw outages and error bursts, a DTN crashes. The
// scheduler runs with checkpointed resume and circuit breakers, retry
// backoff spends virtual time, and the final report adds recovery
// accounting. Failed jobs are expected under chaos and do not fail the
// process.
//
// With -overload, the full overload-control stack arms: a bounded
// queue with per-tenant quotas (the trace loop back-pressures through
// SubmitWait instead of dropping), CoDel-style queue-delay shedding,
// weighted DRR fair queuing, hedged transfers, and brownout
// degradation. Every job gets a deadline of 60 virtual seconds from
// admission, so queue-rotted work expires instead of burning capacity.
// Shed and expired jobs are expected under overload and do not fail
// the process.
//
// With -churn, the daemon instead replays the BGP reconvergence storm
// (see internal/faults.ChurnSchedule) twice over the same fleet and
// seed — once as an ablated control and once with the full churn stack:
// staged per-domain convergence with transient blackholes, push-based
// route invalidation off the event bus, make-before-break rerouting of
// in-flight transfers, parking on total route loss, and a DTN drain —
// and prints the deterministic with/without report. Other scheduler
// flags are ignored in this mode.
//
// With -grayfail, the daemon instead replays the gray-failure schedule
// (see internal/faults.GrayfailSchedule) twice over the same fleet and
// seed — once as the Health == nil ablation and once with the health
// stack: stall watchdogs with adaptive budgets, outlier ejection with
// canary re-admission, and per-provider retry budgets — and prints the
// deterministic with/without report. Other scheduler flags are ignored
// in this mode.
//
// With -pressure, the daemon instead replays the storage-exhaustion
// schedule (see internal/faults.PressureSchedule) twice over the same
// fleet and seed — once as the no-mitigation ablation and once with the
// full ladder: LRU eviction of stale staged state, spill-aware
// placement off DTN headroom, provider-session reclamation on 507,
// spill to alternate providers, and journal degradation to in-memory
// folding — and prints the deterministic with/without report. Other
// scheduler flags are ignored in this mode.
//
// With -crashsafe, the daemon instead runs the crash-consistency sweep
// (see internal/replay.WriteCrashsafe): a journaled scheduler killed
// at every enumerated control-plane crash point, restarted on the same
// journal, and required to converge byte-identical to the crash-free
// control with zero duplicate provider commits — plus the storage-decay
// arm. Other scheduler flags are ignored in this mode.
//
// With -multipath, the daemon instead runs the striped-transfer
// comparison (see internal/replay.WriteMultipath): every site/provider
// pair measured over each single route and then striped across direct
// + detours through JobMultipath, plus the churn leg that drives one
// large striped transfer into the reconvergence storm. Other scheduler
// flags are ignored in this mode.
//
// With -telemetry, the daemon instead replays the instrumented flash
// crowd (see internal/replay.WriteTelemetry) against the reconvergence
// storm with the full observability plane attached — metrics registry,
// virtual-clock sampler, per-job flight recorder — printing a compact
// telemetry line every -dump-every virtual seconds while it drains,
// then the dashboard and the full deterministic report (time series,
// failed-job decision traces, Prometheus dump). Other scheduler flags
// are ignored in this mode.
//
// Each replay mode prints exactly what its program under examples/
// prints for the same seed.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"detournet/internal/faults"
	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

func main() {
	var (
		jobs        = flag.Int("jobs", 600, "jobs in the generated fleet trace")
		workers     = flag.Int("workers", 8, "worker-pool size")
		seed        = flag.Int64("seed", 2015, "world and trace seed")
		providerCap = flag.Int("provider-cap", 4, "max concurrent transfers per provider (-1 = unlimited)")
		dtnCap      = flag.Int("dtn-cap", 2, "max concurrent detour transfers per DTN (-1 = unlimited)")
		tenantRate  = flag.Float64("tenant-rate", 0, "admitted jobs/sec per tenant (0 = unlimited)")
		statsEvery  = flag.Duration("stats", 2*time.Second, "status-line interval (0 = quiet)")
		chaos       = flag.Bool("chaos", false, "replay the canned fault schedule while draining")
		overload    = flag.Bool("overload", false, "arm admission control, fair queuing, shedding, hedging, and brownout")
		churn       = flag.Bool("churn", false, "replay the BGP reconvergence storm, control vs full stack, and report")
		grayfail    = flag.Bool("grayfail", false, "replay the gray-failure schedule, no-health ablation vs health stack, and report")
		pressure    = flag.Bool("pressure", false, "replay the storage-exhaustion schedule, no-mitigation ablation vs full stack, and report")
		mpath       = flag.Bool("multipath", false, "run the striped-vs-single comparison plus the multipath churn leg, and report")
		crashsafe   = flag.Bool("crashsafe", false, "run the crash-consistency sweep (kill at every crash point, restart, replay) and report")
		telem       = flag.Bool("telemetry", false, "replay the instrumented flash crowd with the observability plane and report")
		dumpEvery   = flag.Float64("dump-every", 60, "virtual seconds between periodic telemetry lines in -telemetry mode")
	)
	flag.Parse()

	switch {
	case *telem:
		replay.WriteTelemetry(os.Stdout, *seed, 0, *dumpEvery)
		return
	case *crashsafe:
		exitOn("crashsafe", replay.WriteCrashsafe(os.Stdout, *seed))
		return
	case *mpath:
		exitOn("multipath", replay.WriteMultipath(os.Stdout, *seed, 0, 0))
		return
	case *churn:
		replay.WriteChurn(os.Stdout, *seed, 0)
		return
	case *grayfail:
		replay.WriteGrayfail(os.Stdout, *seed, 0)
		return
	case *pressure:
		replay.WritePressure(os.Stdout, *seed, 0)
		return
	}

	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    *jobs,
		Clients: scenario.Clients,
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
	}, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "detourd: %v\n", err)
		os.Exit(2)
	}

	w := scenario.Build(*seed)
	exec := sched.NewSimExecutor(w)
	defer exec.Close()
	cfg := sched.Config{
		Workers: *workers, Executor: exec, Planner: exec,
		ProviderCap: *providerCap, DTNCap: *dtnCap,
		TenantRate: *tenantRate,
	}
	var inj *faults.Injector
	if *chaos {
		inj = faults.NewInjector(w, *seed, faults.CannedSchedule()...)
		// Backoff must spend virtual time so retries interact with the
		// fault windows; a few extra attempts ride out outage windows.
		cfg.Now, cfg.Sleep = exec.VirtualNow, exec.SleepVirtual
		cfg.MaxAttempts = 5
	}
	const deadlineSlack = 60.0 // virtual seconds from admission
	if *overload {
		cfg.Now, cfg.Sleep = exec.VirtualNow, exec.SleepVirtual
		cfg.QueueLimit = 16 * *workers
		cfg.TenantQueueLimit = 8 * *workers
		cfg.FairQueue = true
		cfg.CoDelTarget = 10
		cfg.Hedge = true
		cfg.BrownoutEnter = 0.8
	}
	s := sched.New(cfg)
	s.Start()
	defer s.Close()

	fmt.Printf("detourd: %d jobs, %d workers, provider-cap=%d dtn-cap=%d tenant-rate=%g\n",
		len(trace), *workers, *providerCap, *dtnCap, *tenantRate)

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Printf("detourd: %s\n", s.Stats())
				case <-stop:
					return
				}
			}
		}()
	}

	admitted := 0
	for _, fj := range trace {
		j := sched.Job{
			Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
			Name: fj.Name, Size: fj.Size, Priority: fj.Priority,
		}
		// A rate-limited tenant's job waits for its bucket to refill
		// rather than being dropped: the daemon back-pressures the trace.
		for {
			var err error
			if *overload {
				// The bounded queue back-pressures through SubmitWait:
				// a full queue blocks the trace instead of dropping it.
				// Deadlines run from admission, so work that rots in the
				// queue expires instead of burning transfer capacity.
				j.Deadline = exec.VirtualNow() + deadlineSlack
				err = s.SubmitWait(j)
			} else {
				err = s.Submit(j)
			}
			if err == nil {
				admitted++
				break
			}
			if err != sched.ErrRateLimited {
				fmt.Fprintf(os.Stderr, "detourd: submit %s: %v\n", fj.Name, err)
				os.Exit(1)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	s.Drain()

	st := s.Stats()
	fmt.Printf("detourd: drained — %s\n", st)
	fmt.Printf("  admitted %d of %d; %d retries, %d detour->direct fallbacks, %d cache invalidations\n",
		admitted, len(trace), st.Retries, st.Fallbacks, st.CacheInvalidations)
	fmt.Printf("  virtual time: %.1f s of simulated transfer activity\n", exec.VirtualNow())
	if inj != nil {
		fmt.Printf("  chaos: %d fault transitions; %d failovers, %d breaker diversions, %d breaker transitions\n",
			inj.Injected, st.Failovers, st.BreakerSkips, st.BreakerTransitions)
		fmt.Printf("  recovery: %.1f MB resumed from checkpoints, %.1f MB rewritten\n",
			st.BytesResumed/1e6, st.BytesRewritten/1e6)
	}
	if *overload {
		fmt.Printf("  overload: %d shed, %d expired, %d late; queue delay p99 %.1fs\n",
			st.Shed, st.Expired, st.Late, st.QueueDelayP99)
		fmt.Printf("  hedging: %d launched, %d won; brownout %d enters / %d exits, %d direct serves, %d stale cache serves\n",
			st.Hedges, st.HedgeWins, st.BrownoutEnters, st.BrownoutExits, st.BrownoutDirect, st.StaleServes)
	}

	fmt.Println("  per-route totals:")
	replay.WriteRoutes(os.Stdout, "    ", st)
	fmt.Println("  concurrency peaks (cap enforcement high-water marks):")
	replay.WritePeaks(os.Stdout, "    ", st)
	if st.Failed > 0 && !*chaos && !*overload {
		os.Exit(1)
	}
}

// exitOn fails the process when a replay mode's acceptance check broke.
func exitOn(mode string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "detourd: %s: %v\n", mode, err)
		os.Exit(1)
	}
}
