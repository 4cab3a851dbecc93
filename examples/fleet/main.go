// Fleet: the paper measures one client uploading one file at a time;
// this example replays a 600-job multi-tenant trace — three campuses,
// three providers, personal-cloud file sizes — through the scheduler
// control plane on the simulated topology. Probing is paid once per
// (client, provider, size-bucket) and amortized across the fleet by the
// route cache; per-provider and per-DTN caps keep the shared detour
// nodes from self-congesting.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

func main() {
	const nJobs = 600
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    nJobs,
		Clients: scenario.Clients, // ubc-pl, purdue-pl, ucla-pl
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
	}, rand.New(rand.NewSource(2015)))
	if err != nil {
		panic(err)
	}

	perClient := map[string]int{}
	for _, fj := range trace {
		perClient[fj.Client]++
	}
	fmt.Printf("Fleet: %d jobs submitted across %d clients and 3 providers\n",
		len(trace), len(perClient))
	o := replay.Run(replay.Spec{
		Seed:   2015,
		Config: sched.Config{Workers: 8, ProviderCap: 4, DTNCap: 2},
		// The scheduler keeps the wall clock: the whole trace drains well
		// inside one route-cache TTL, so each (client, provider,
		// size-bucket) is probed about once and amortized across the fleet.
		Setup: func(e *replay.Env) { e.Config.Now, e.Config.Sleep = nil, nil },
		Fleet: replay.Batch(trace),
	})

	st := o.Stats
	fmt.Printf("drained: %d done, %d failed (%d retries, %d detour->direct fallbacks)\n",
		st.Done, st.Failed, st.Retries, st.Fallbacks)
	clients := make([]string, 0, len(perClient))
	for c := range perClient {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		fmt.Printf("  %-12s %d jobs\n", c, perClient[c])
	}
	fmt.Printf("route cache: %.0f%% hit rate — %d probes served %d route decisions\n",
		st.CacheHitRate()*100, st.CacheMisses, st.CacheHits+st.CacheMisses)
	fmt.Printf("virtual transfer time: %.1f s across %d simulated uploads\n",
		o.VirtualSeconds, o.Exec.Transfers)

	fmt.Println("per-route totals:")
	replay.WriteRoutes(os.Stdout, "  ", st)
	fmt.Println("concurrency peaks (caps: provider 4, dtn 2):")
	replay.WritePeaks(os.Stdout, "  ", st)
}
