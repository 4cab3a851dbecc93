// Command detourd runs the transfer-scheduler control plane as a
// daemon against the simulated topology: it generates a multi-tenant
// fleet trace, feeds it open-loop at its generated arrival times
// (Poisson, 1 job/s) through per-tenant rate limits, drains it through
// the worker pool under per-provider and per-DTN concurrency caps, and
// logs periodic one-line status snapshots while it works — the
// operational mode the paper's per-invocation measurement programs
// stop short of. It runs on the scheduler replay driver (replay.Run),
// on the virtual clock: -stats is a virtual-time interval, and at one
// worker the whole report is a pure function of the flags.
//
// Usage:
//
//	detourd [-jobs 600] [-workers 8] [-seed 2015]
//	        [-provider-cap 4] [-dtn-cap 2] [-tenant-rate 0]
//	        [-stats 60s] [-chaos] [-overload]
//
// With -chaos, the canned fault schedule (see internal/faults) plays
// against the world while the trace drains: links flap and degrade,
// providers throw outages and error bursts, a DTN crashes. The
// scheduler runs with checkpointed resume, circuit breakers and five
// attempts per job, and the final report adds recovery accounting, the
// circuit breakers' states at drain and the first 12 fault transitions.
//
// With -overload, the full overload-control stack arms (a positive
// sched.Config.QueueLimit is its one switch): a bounded queue with
// per-tenant quotas, CoDel-style queue-delay shedding, DRR fair
// queuing, hedged transfers, and brownout degradation. Every job gets
// a deadline 60 virtual seconds after its arrival, so queue-rotted
// work expires instead of burning capacity.
//
// A submission the rate limits or the bounded queue refuse is dropped
// and counted ("admitted N of M"). Every mode exits 1 when the run
// breaks an invariant (replay.Outcome.Check); the default mode also
// exits 1 on any failed job, while failed, shed and expired jobs are
// expected under -chaos and -overload. Bad flags exit 2 before any
// world is built.
//
// detourd is the one view of the generated multi-tenant fleet trace,
// with and without faults. The deterministic scheduler replays (churn,
// grayfail, pressure, multipath, crashsafe, telemetry, overload) are not
// daemon modes: `detourbench -experiment <mode>` prints each of them.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"detournet/internal/faults"
	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// options are the daemon's flags.
type options struct {
	jobs, workers, providerCap, dtnCap int
	seed                               int64
	tenantRate                         float64
	stats                              time.Duration
	chaos, overload                    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, drains the trace and writes the report to stdout. It
// returns the exit code: 2 for bad flags, 1 for a broken invariant or,
// in the default mode, a failed job.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detourd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.jobs, "jobs", 600, "jobs in the generated fleet trace")
	fs.IntVar(&o.workers, "workers", 8, "worker-pool size")
	fs.Int64Var(&o.seed, "seed", 2015, "world and trace seed")
	fs.IntVar(&o.providerCap, "provider-cap", 4, "max concurrent transfers per provider (-1 = unlimited)")
	fs.IntVar(&o.dtnCap, "dtn-cap", 2, "max concurrent detour transfers per DTN (-1 = unlimited)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "admitted jobs per virtual second per tenant (0 = unlimited)")
	fs.DurationVar(&o.stats, "stats", 60*time.Second, "status-line interval in virtual time (0 = quiet)")
	fs.BoolVar(&o.chaos, "chaos", false, "replay the canned fault schedule while draining")
	fs.BoolVar(&o.overload, "overload", false, "arm admission control, fair queuing, shedding, hedging, and brownout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.check(); err != nil {
		fmt.Fprintf(stderr, "detourd: %v\n", err)
		return 2
	}

	sp := o.spec(stdout)
	fmt.Fprintf(stdout, "detourd: %d jobs, %d workers, provider-cap=%d dtn-cap=%d tenant-rate=%g\n",
		len(sp.Fleet), o.workers, o.providerCap, o.dtnCap, o.tenantRate)
	out := replay.Run(sp)

	st := out.Stats
	fmt.Fprintf(stdout, "detourd: drained — %s\n", st)
	fmt.Fprintf(stdout, "  admitted %d of %d; %d retries, %d detour->direct fallbacks, %d cache invalidations\n",
		len(out.Fleet)-len(out.Rejected), len(out.Fleet), st.Retries, st.Fallbacks, st.CacheInvalidations)
	fmt.Fprintf(stdout, "  virtual time: %.1f s of simulated transfer activity\n", out.VirtualSeconds)
	if o.chaos {
		fmt.Fprintf(stdout, "  chaos: %d fault transitions; %d failovers, %d breaker diversions, %d breaker transitions\n",
			out.Injector.Injected, st.Failovers, st.BreakerSkips, st.BreakerTransitions)
		fmt.Fprintf(stdout, "  recovery: %.1f MB resumed from checkpoints, %.1f MB rewritten\n",
			st.BytesResumed/1e6, st.BytesRewritten/1e6)
		fmt.Fprintln(stdout, "  breakers at drain:")
		replay.WriteBreakers(stdout, "    ", st)
		fmt.Fprintln(stdout, "  fault timeline (first 12 transitions):")
		for i, tr := range out.Transitions {
			if i == 12 {
				fmt.Fprintf(stdout, "    ... %d more\n", len(out.Transitions)-12)
				break
			}
			fmt.Fprintf(stdout, "    %s\n", tr)
		}
	}
	if o.overload {
		fmt.Fprintf(stdout, "  overload: %d shed, %d expired, %d late; queue delay p99 %.1fs\n",
			st.Shed, st.Expired, st.Late, st.QueueDelayP99)
		fmt.Fprintf(stdout, "  hedging: %d launched, %d won; brownout %d enters / %d exits, %d direct serves, %d stale cache serves\n",
			st.Hedges, st.HedgeWins, st.BrownoutEntries, st.BrownoutExits, st.BrownoutDirect, st.StaleServes)
	}
	fmt.Fprintln(stdout, "  per-route totals:")
	replay.WriteRoutes(stdout, "    ", st)
	fmt.Fprintln(stdout, "  concurrency peaks (cap enforcement high-water marks):")
	replay.WritePeaks(stdout, "    ", st)

	if err := out.Check(); err != nil {
		fmt.Fprintf(stderr, "detourd: invariant broken: %v\n", err)
		return 1
	}
	if st.Failed > 0 && !o.chaos && !o.overload {
		return 1
	}
	return 0
}

// check rejects flags that describe no runnable daemon.
func (o options) check() error {
	switch {
	case o.jobs < 1:
		return fmt.Errorf("-jobs %d: want at least 1", o.jobs)
	case o.workers < 1:
		return fmt.Errorf("-workers %d: want at least 1", o.workers)
	case o.tenantRate < 0:
		return fmt.Errorf("-tenant-rate %g: want 0 (unlimited) or a positive rate", o.tenantRate)
	case o.stats < 0:
		return fmt.Errorf("-stats %v: want 0 (quiet) or a positive interval", o.stats)
	case o.providerCap < -1:
		return fmt.Errorf("-provider-cap %d: want -1 (unlimited) or more", o.providerCap)
	case o.dtnCap < -1:
		return fmt.Errorf("-dtn-cap %d: want -1 (unlimited) or more", o.dtnCap)
	}
	return nil
}

// spec is the daemon's run as one replay arm; with -stats, a sampler on
// the virtual clock writes a status line to stdout every interval.
func (o options) spec(stdout io.Writer) replay.Spec {
	fleet := workload.FleetSpec{
		Jobs: o.jobs, Clients: scenario.Clients,
		Providers: []string{scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive},
	}
	sp := replay.Spec{Seed: o.seed, Config: sched.Config{
		Workers: o.workers, ProviderCap: o.providerCap, DTNCap: o.dtnCap, TenantRate: o.tenantRate,
	}}
	if o.chaos {
		sp.Faults = faults.CannedSchedule()
		sp.Config.MaxAttempts = 5
	}
	if o.overload {
		fleet.DeadlineSlack = 60
		c := &sp.Config
		c.QueueLimit, c.TenantQueueLimit, c.CoDelTarget = 16*o.workers, 8*o.workers, 10
	}
	if o.stats > 0 {
		sp.Setup = func(e *replay.Env) {
			e.Sampler = telemetry.NewSampler(e.World.Eng, o.stats.Seconds(), 0)
			e.World.AddPauser(e.Sampler)
			e.Sampler.OnSample(func(t float64) {
				fmt.Fprintf(stdout, "detourd: [t=%.1fs] %s\n", t, e.Sched.Stats())
			})
		}
	}
	trace, err := workload.GenerateFleet(fleet, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		panic(err) // the spec is fixed but for the validated job count
	}
	sp.Fleet = replay.Arrivals(trace)
	return sp
}
