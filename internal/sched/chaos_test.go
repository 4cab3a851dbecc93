package sched_test

import (
	"testing"

	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/replay"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// chaosRun executes one UBC → Google Drive job, pinned to the UAlberta
// detour with the full candidate set available for failover, while the
// given fault schedule plays, and returns its result and the scheduler
// stats. noCheckpoint hands the scheduler an Execute-only executor, so
// every attempt restarts from byte zero.
func chaosRun(t *testing.T, noCheckpoint bool, specs ...faults.Spec) (sched.Result, sched.Stats) {
	t.Helper()
	o := replay.Run(replay.Spec{
		Seed:   3,
		Faults: specs,
		Config: sched.Config{MaxAttempts: 4},
		Setup: func(e *replay.Env) {
			e.Config.Planner = sched.PlannerFunc(func(c, p string, s float64) (core.Route, []core.Route, error) {
				return core.ViaRoute(scenario.UAlberta), scenario.Routes(), nil
			})
			if noCheckpoint {
				e.Config.Executor = sched.ExecutorFunc(e.Exec.Execute)
			}
		},
		Fleet: []replay.Arrival{{Job: sched.Job{
			Tenant: "chaos", Client: scenario.UBC, Provider: scenario.GoogleDrive,
			Name: "chaos.bin", Size: 100e6,
		}}},
	})
	if len(o.Results) != 1 {
		t.Fatalf("%d results, want 1", len(o.Results))
	}
	return o.Results[0], o.Stats
}

// TestChaosResumeAcrossLinkFlap is the PR's acceptance scenario: the
// detour's first-hop link (CANARIE Vancouver–Edmonton) goes down in
// the middle of hop 1. The transfer must complete by resuming from the
// DTN's partial offset, rewriting less than 20% of the file.
func TestChaosResumeAcrossLinkFlap(t *testing.T) {
	flap := faults.Spec{
		Kind: faults.LinkDown, From: "vncv1", To: "edmn1",
		Start: 5, Duration: 8,
	}

	res, st := chaosRun(t, false, flap)
	if res.Err != nil {
		t.Fatalf("job did not survive the flap: %v", res.Err)
	}
	if res.Attempts < 2 {
		t.Fatalf("flap should have forced a retry, attempts = %d", res.Attempts)
	}
	if res.Resumed == 0 {
		t.Fatal("checkpointed resume never engaged")
	}
	if limit := 0.2 * res.Job.Size; res.Rewritten >= limit {
		t.Fatalf("rewrote %.0f bytes, want < %.0f (20%% of file)", res.Rewritten, limit)
	}
	if st.BytesResumed == 0 {
		t.Fatal("scheduler stats recorded no resumed bytes")
	}

	// Negative control: same schedule, Execute-only executor. The job
	// must show no checkpoint accounting (it restarted from byte zero on
	// every attempt) — and redoing the work costs it real transfer time.
	nres, nst := chaosRun(t, true, flap)
	if nres.Resumed != 0 || nres.Rewritten != 0 {
		t.Fatalf("recovery disabled but checkpoint accounting ran: resumed=%.0f rewritten=%.0f",
			nres.Resumed, nres.Rewritten)
	}
	if nst.BytesResumed != 0 {
		t.Fatalf("recovery disabled but stats counted %.0f resumed bytes", nst.BytesResumed)
	}
	if nres.Err == nil && nres.Seconds <= res.Seconds {
		t.Fatalf("restart-from-zero attempt (%.1fs) should be slower than the resumed one (%.1fs)",
			nres.Seconds, res.Seconds)
	}
}

// TestChaosFailoverToDirect crashes the detour's DTN for good: the
// scheduler must classify the dead route, quarantine it, and finish
// the job over the direct route.
func TestChaosFailoverToDirect(t *testing.T) {
	res, st := chaosRun(t, false, faults.Spec{
		Kind: faults.DTNCrash, DTN: scenario.UAlberta,
		Start: 5, Duration: 1e9,
	})
	if res.Err != nil {
		t.Fatalf("job did not survive the DTN crash: %v", res.Err)
	}
	if res.Route != core.DirectRoute {
		t.Fatalf("job finished on %s, want Direct after failover", res.Route)
	}
	if st.Failovers == 0 {
		t.Fatal("stats recorded no failovers")
	}
	if inv := st.CacheInvalidations; inv == 0 {
		t.Fatal("dead detour was never quarantined")
	}
}
