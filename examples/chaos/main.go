// Chaos: the fleet example's multi-tenant trace replayed under the
// canned fault schedule — the detour first-hop link flaps, the
// PacificWave hand-off degrades, Google Drive throws error bursts,
// Dropbox has an outage, the UAlberta DTN crashes. The scheduler runs
// with checkpointed resume, failure classification, and per-route
// circuit breakers, and the report shows what resilience cost and
// saved: goodput, retries, bytes resumed vs. rewritten, breaker
// transitions, per-route totals.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"detournet/internal/faults"
	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

func main() {
	const nJobs = 300
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    nJobs,
		Clients: scenario.Clients,
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
	}, rand.New(rand.NewSource(2015)))
	if err != nil {
		panic(err)
	}

	var totalBytes float64
	for _, fj := range trace {
		totalBytes += fj.Size
	}
	fmt.Printf("Chaos: %d jobs (%.0f MB) submitted under %d scripted faults\n",
		len(trace), totalBytes/1e6, len(faults.CannedSchedule()))
	o := replay.Run(replay.Spec{
		Seed:   2015,
		Faults: faults.CannedSchedule(),
		Config: sched.Config{Workers: 8, ProviderCap: 4, DTNCap: 2, MaxAttempts: 5},
		Fleet:  replay.Batch(trace),
	})

	st, virt := o.Stats, o.VirtualSeconds
	fmt.Printf("drained: %d done, %d failed — %d retries, %d fallbacks, %d failovers, %d breaker diversions\n",
		st.Done, st.Failed, st.Retries, st.Fallbacks, st.Failovers, st.BreakerSkips)
	var goodBytes float64
	for _, rs := range st.PerRoute {
		goodBytes += rs.Bytes
	}
	fmt.Printf("goodput: %.1f MB delivered in %.1f virtual s (%.2f MB/s fleet-wide)\n",
		goodBytes/1e6, virt, goodBytes/1e6/virt)
	fmt.Printf("recovery: %.1f MB resumed from checkpoints, %.1f MB rewritten (%.1f%% of delivered)\n",
		st.BytesResumed/1e6, st.BytesRewritten/1e6, 100*st.BytesRewritten/goodBytes)
	fmt.Printf("faults injected: %d schedule transitions, %d breaker transitions\n",
		o.Injector.Injected, st.BreakerTransitions)

	fmt.Println("breakers at drain:")
	keys := make([]string, 0, len(st.Breakers))
	for k := range st.Breakers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %s\n", k, st.Breakers[k])
	}

	fmt.Println("per-route totals:")
	replay.WriteRoutes(os.Stdout, "  ", st)

	fmt.Println("fault timeline (first 12 transitions):")
	for i, tr := range o.Transitions {
		if i == 12 {
			fmt.Printf("  ... %d more\n", len(o.Transitions)-12)
			break
		}
		fmt.Printf("  %s\n", tr)
	}
}
