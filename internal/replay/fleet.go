// Fleet and chaos modes: the paper measures one client uploading one
// file at a time; these replay a multi-tenant trace — three campuses,
// three providers, personal-cloud file sizes — through the scheduler on
// eight real workers. Fleet drains 600 jobs on the wall clock, so
// probing is paid about once per (client, provider, size-bucket) and
// amortized by the route cache, while per-provider and per-DTN caps keep
// the shared detour nodes from self-congesting. Chaos drains 300 jobs
// under the canned fault schedule — the detour first-hop link flaps, the
// PacificWave hand-off degrades, Google Drive throws error bursts,
// Dropbox has an outage, the UAlberta DTN crashes — with checkpointed
// resume, failure classification and per-route circuit breakers, and
// reports what resilience cost and saved.
//
// The workers interleave for real, so neither report is byte-identical
// between runs; only the invariants (Outcome.Check) are.

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

// Fleet sizes of the two modes.
const (
	fleetJobs = 600
	chaosJobs = 300
)

// fleetTrace is n jobs of the multi-tenant trace generated from seed,
// all due at the start.
func fleetTrace(seed int64, n int) []Arrival {
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    n,
		Clients: scenario.Clients,
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return Batch(trace)
}

// fleetSpec is the wall-clock fleet replay.
func fleetSpec(seed int64) Spec {
	return Spec{
		Seed:   seed,
		Config: sched.Config{Workers: 8, ProviderCap: 4, DTNCap: 2},
		// The scheduler keeps the wall clock: the whole trace drains well
		// inside one route-cache TTL, so each (client, provider,
		// size-bucket) is probed about once and amortized across the fleet.
		Setup: func(e *Env) { e.Config.Now, e.Config.Sleep = nil, nil },
		Fleet: fleetTrace(seed, fleetJobs),
	}
}

// chaosSpec is the fleet trace replayed under the canned fault
// schedule, with a few extra attempts to ride out outage windows.
func chaosSpec(seed int64) Spec {
	return Spec{
		Seed:   seed,
		Faults: faults.CannedSchedule(),
		Config: sched.Config{Workers: 8, ProviderCap: 4, DTNCap: 2, MaxAttempts: 5},
		Fleet:  fleetTrace(seed, chaosJobs),
	}
}

// WriteFleet replays the fleet trace and writes the report `detourbench
// -experiment fleet` prints: per-client counts, the route cache's hit
// rate, per-route totals and concurrency peaks.
func WriteFleet(out io.Writer, seed int64) {
	sp := fleetSpec(seed)
	perClient := map[string]int{}
	for _, a := range sp.Fleet {
		perClient[a.Client]++
	}
	fmt.Fprintf(out, "Fleet: %d jobs submitted across %d clients and 3 providers\n",
		len(sp.Fleet), len(perClient))
	o := Run(sp)

	st := o.Stats
	fmt.Fprintf(out, "drained: %d done, %d failed (%d retries, %d detour->direct fallbacks)\n",
		st.Done, st.Failed, st.Retries, st.Fallbacks)
	for _, c := range sortedKeys(perClient) {
		fmt.Fprintf(out, "  %-12s %d jobs\n", c, perClient[c])
	}
	fmt.Fprintf(out, "route cache: %.0f%% hit rate — %d probes served %d route decisions\n",
		st.CacheHitRate()*100, st.CacheMisses, st.CacheHits+st.CacheMisses)
	fmt.Fprintf(out, "virtual transfer time: %.1f s across %d simulated uploads\n",
		o.VirtualSeconds, o.Exec.Transfers)

	fmt.Fprintln(out, "per-route totals:")
	WriteRoutes(out, "  ", st)
	fmt.Fprintln(out, "concurrency peaks (caps: provider 4, dtn 2):")
	WritePeaks(out, "  ", st)
}

// WriteChaos replays the fleet trace under the canned fault schedule
// and writes the report `detourbench -experiment chaos` prints:
// goodput, retries, bytes resumed vs. rewritten, breaker states,
// per-route totals and the start of the fault timeline.
func WriteChaos(out io.Writer, seed int64) {
	sp := chaosSpec(seed)
	var totalBytes float64
	for _, a := range sp.Fleet {
		totalBytes += a.Size
	}
	fmt.Fprintf(out, "Chaos: %d jobs (%.0f MB) submitted under %d scripted faults\n",
		len(sp.Fleet), totalBytes/1e6, len(sp.Faults))
	o := Run(sp)

	st, virt := o.Stats, o.VirtualSeconds
	fmt.Fprintf(out, "drained: %d done, %d failed — %d retries, %d fallbacks, %d failovers, %d breaker diversions\n",
		st.Done, st.Failed, st.Retries, st.Fallbacks, st.Failovers, st.BreakerSkips)
	var goodBytes float64
	for _, rs := range st.PerRoute {
		goodBytes += rs.Bytes
	}
	fmt.Fprintf(out, "goodput: %.1f MB delivered in %.1f virtual s (%.2f MB/s fleet-wide)\n",
		goodBytes/1e6, virt, goodBytes/1e6/virt)
	fmt.Fprintf(out, "recovery: %.1f MB resumed from checkpoints, %.1f MB rewritten (%.1f%% of delivered)\n",
		st.BytesResumed/1e6, st.BytesRewritten/1e6, 100*st.BytesRewritten/goodBytes)
	fmt.Fprintf(out, "faults injected: %d schedule transitions, %d breaker transitions\n",
		o.Injector.Injected, st.BreakerTransitions)

	fmt.Fprintln(out, "breakers at drain:")
	for _, k := range sortedKeys(st.Breakers) {
		fmt.Fprintf(out, "  %-32s %s\n", k, st.Breakers[k])
	}

	fmt.Fprintln(out, "per-route totals:")
	WriteRoutes(out, "  ", st)

	fmt.Fprintln(out, "fault timeline (first 12 transitions):")
	for i, tr := range o.Transitions {
		if i == 12 {
			fmt.Fprintf(out, "  ... %d more\n", len(o.Transitions)-12)
			break
		}
		fmt.Fprintf(out, "  %s\n", tr)
	}
}
