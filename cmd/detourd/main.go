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
// The deterministic scheduler replays (churn, grayfail, pressure,
// multipath, crashsafe, telemetry, overload) and the fleet and chaos
// reports are not daemon modes: `detourbench -experiment <mode>` prints
// each of them.
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
	)
	flag.Parse()

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
