package sched_test

import (
	"math/rand"
	"testing"

	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/workload"
)

// TestSimExecutorFleet runs a real multi-client fleet trace through the
// control plane on the simulated topology: concurrent workers, cached
// probe decisions, transfers in virtual time. It is a miniature of
// `detourd` with every job due at the start, which CI (and the race
// detector) always runs.
func TestSimExecutorFleet(t *testing.T) {
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:    36,
		Clients: []string{scenario.UBC, scenario.Purdue, scenario.UCLA},
		Providers: []string{
			scenario.GoogleDrive, scenario.Dropbox, scenario.OneDrive,
		},
		Sizes: workload.Fixed{Bytes: 2e6},
	}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	fleet := replay.Arrivals(trace)
	for i := range fleet {
		fleet[i].At = 0
	}
	o := replay.Run(replay.Spec{
		Seed: 7,
		// An hour-long route-cache TTL outlasts the whole drain, so no
		// decision expires mid-trace and the probe bound below holds.
		Config: sched.Config{Workers: 6, ProviderCap: 2, DTNCap: 2, CacheTTL: 3600},
		Fleet:  fleet,
	})
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}

	st := o.Stats
	if st.Done != int64(len(trace)) || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0 (stats: %s)", st.Done, st.Failed, len(trace), st)
	}
	if o.VirtualSeconds <= 0 {
		t.Error("virtual clock did not advance")
	}
	// Fixed 2 MB sizes land in one bucket per (client, provider): at
	// most 9 probes for 36 jobs, so the fleet amortizes to >= 50% even
	// in the worst coalescing order; typically far higher.
	if hr := st.CacheHitRate(); hr < 0.5 {
		t.Errorf("cache hit rate = %.2f, want >= 0.5", hr)
	}
	for prov, peak := range st.ProviderPeak {
		if peak > 2 {
			t.Errorf("provider %s peak %d exceeds cap 2", prov, peak)
		}
	}
	// Every transfer must have gone somewhere we can account for.
	var jobs int64
	for _, rs := range st.PerRoute {
		jobs += rs.Jobs
	}
	if jobs != st.Done {
		t.Errorf("per-route jobs = %d, want %d", jobs, st.Done)
	}
}
