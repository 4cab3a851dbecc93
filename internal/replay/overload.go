// Overload mode: a flash crowd hits the scheduler at several times the
// sustainable service rate — four steady tenants sync all day, a fifth
// tenant dumps a burst, and mid-burst the detour's first-hop link
// degrades. The identical trace replays as the control (unbounded
// queue, no shedding, no fairness, no hedging) and with the overload
// stack (bounded queue with per-tenant quotas, CoDel-style queue-delay
// shedding, DRR fair queuing, hedged transfers, brownout
// degradation).

package replay

import (
	"fmt"
	"io"
	"math/rand"

	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

// The overload trace: calm, burst, calm; 1 MB jobs that are worthless
// overloadSlack seconds after they arrive.
const (
	overloadCalm  = 40.0
	overloadBurst = 160.0
	overloadEnd   = overloadCalm + overloadBurst + overloadCalm
	overloadSlack = 45.0
	steadyRate    = 0.2 // jobs/s per steady tenant
	flashRate     = 6.0 // jobs/s from the flash tenant during the burst
)

// overloadTrace lays the flash crowd over the steady fleet: each steady
// tenant is its own Poisson stream for the whole trace, the flash
// tenant follows the three-phase FlashCrowd schedule.
func overloadTrace(seed int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	generate := func(spec workload.FleetSpec) []workload.FleetJob {
		spec.Clients, spec.Providers = []string{scenario.UBC}, []string{scenario.GoogleDrive}
		spec.Sizes = workload.Fixed{Bytes: 1e6}
		spec.PriorityLevels, spec.DeadlineSlack = 1, overloadSlack
		jobs, err := workload.GenerateFleet(spec, rng)
		if err != nil {
			panic(err)
		}
		out := jobs[:0]
		for _, j := range jobs {
			if j.At <= overloadEnd {
				out = append(out, j)
			}
		}
		return out
	}
	var parts [][]workload.FleetJob
	for ti := 0; ti < 4; ti++ {
		tn := fmt.Sprintf("steady-%d", ti)
		parts = append(parts, generate(workload.FleetSpec{
			Jobs: int(steadyRate * overloadEnd), Tenants: []string{tn}, Prefix: tn,
			Arrivals: workload.Poisson{RatePerSec: steadyRate},
		}))
	}
	crowd, err := workload.NewFlashCrowd(
		workload.Phase{RatePerSec: 0.02, Seconds: overloadCalm},
		workload.Phase{RatePerSec: flashRate, Seconds: overloadBurst},
		workload.Phase{RatePerSec: 0.02},
	)
	if err != nil {
		panic(err)
	}
	parts = append(parts, generate(workload.FleetSpec{
		Jobs: int(flashRate*overloadBurst) + 40, Tenants: []string{"flash"}, Prefix: "flash",
		Arrivals: crowd,
	}))
	return Arrivals(workload.MergeFleet(parts...))
}

// overloadSpec is one arm over the trace.
func overloadSpec(seed int64, trace []Arrival, stack bool) Spec {
	cfg := sched.Config{MaxAttempts: 3}
	if stack {
		cfg.QueueLimit = 100
		cfg.TenantQueueLimit = 80
		cfg.CoDelTarget = 6
	}
	return Spec{
		Seed: seed,
		// Mid-burst, the detour's first hop (CANARIE Vancouver–Edmonton)
		// drops to 5% capacity: detour attempts stall past their learned
		// budget, and the overload stack hedges them onto the direct route.
		Faults: []faults.Spec{{
			Kind: faults.LinkDegrade, From: "vncv1", To: "edmn1",
			Start: overloadCalm + overloadBurst/2, Duration: overloadBurst / 2, CapacityFactor: 0.05,
		}},
		Config: cfg,
		Fleet:  trace,
	}
}

// deadlineMet sums the bytes of jobs that finished before their deadline.
func deadlineMet(o Outcome) float64 {
	var b float64
	for _, r := range o.Results {
		if r.Err == nil && !r.Late {
			b += r.Job.Size
		}
	}
	return b
}

// tenantRatios is each tenant's deadline-met jobs over its submission
// attempts (rejected submissions included), tenants sorted.
func tenantRatios(o Outcome) (tenants []string, ratios map[string]float64) {
	attempts, done := map[string]float64{}, map[string]float64{}
	for _, a := range o.Fleet {
		attempts[a.Tenant]++
	}
	for _, r := range o.Results {
		if r.Err == nil && !r.Late {
			done[r.Job.Tenant]++
		}
	}
	ratios = map[string]float64{}
	for tn, n := range attempts {
		ratios[tn] = done[tn] / n
	}
	return sortedKeys(attempts), ratios
}

// WriteOverload replays the flash crowd without and with the overload
// stack and writes the report `detourbench -experiment overload`
// prints: goodput, losses, queue delay, hedging, brownout, and
// per-tenant fairness.
func WriteOverload(out io.Writer, seed int64) {
	trace := overloadTrace(seed)
	control, stack := Run(overloadSpec(seed, trace, false)), Run(overloadSpec(seed, trace, true))
	fmt.Fprintf(out, "Overload: %d jobs over %.0fs — calm %.0fs, burst %.0fs (flash tenant at %.0f jobs/s), calm %.0fs\n",
		len(stack.Fleet), overloadEnd, overloadCalm, overloadBurst, flashRate, overloadCalm)
	perTenant := map[string]int{}
	for _, a := range stack.Fleet {
		perTenant[a.Tenant]++
	}
	tenants, ratios := tenantRatios(stack)
	for _, tn := range tenants {
		fmt.Fprintf(out, "  %-10s %4d jobs\n", tn, perTenant[tn])
	}
	fmt.Fprintf(out, "control  run: %s\n", control.Stats)
	fmt.Fprintf(out, "overload run: %s\n", stack.Stats)

	cs, st := control.Stats, stack.Stats
	fmt.Fprintln(out)
	fmt.Fprintf(out, "goodput (deadline-met): control %.0f MB, overload %.0f MB (%.2fx)\n",
		deadlineMet(control)/1e6, deadlineMet(stack)/1e6, deadlineMet(stack)/deadlineMet(control))
	fmt.Fprintf(out, "losses: control expired %d late %d | overload expired %d shed %d rejected %d late %d\n",
		cs.Expired, cs.Late, st.Expired, st.Shed, st.QueueFullRejects+st.TenantQuotaRejects, st.Late)
	fmt.Fprintf(out, "queue delay p99: control %.1fs, overload %.1fs (CoDel EWMA at drain %.2fs)\n",
		cs.QueueDelayP99, st.QueueDelayP99, st.QueueDelayEWMA)
	fmt.Fprintf(out, "hedging: %d launched, %d won (control: %d)\n", st.Hedges, st.HedgeWins, cs.Hedges)
	fmt.Fprintf(out, "brownout: %d enters, %d exits; %d small jobs sent direct unplanned, %d stale cache serves\n",
		st.BrownoutEntries, st.BrownoutExits, st.BrownoutDirect, st.StaleServes)

	fmt.Fprintln(out, "per-tenant deadline-met ratio (of submission attempts):")
	_, controlRatios := tenantRatios(control)
	rejected := map[string]int{}
	for _, j := range stack.Rejected {
		rejected[j.Tenant]++
	}
	var steady []float64
	for _, tn := range tenants {
		fmt.Fprintf(out, "  %-10s control %.2f   overload %.2f   (rejected %d)\n",
			tn, controlRatios[tn], ratios[tn], rejected[tn])
		if tn != "flash" {
			steady = append(steady, ratios[tn])
		}
	}
	// The flash aggressor is excluded: it demands several times its fair
	// share by construction, so equal ratios are not the goal for it.
	fmt.Fprintf(out, "Jain's index over steady tenants: %.3f\n", sched.JainIndex(steady))
}
