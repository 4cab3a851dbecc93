package sched_test

import (
	"testing"

	"detournet/internal/replay"
)

// TestGrayfailAcceptance is the gray-failure gate for seed 2015: the
// health stack completes the fleet with materially better goodput than
// the no-health ablation, every silent degradation window is detected
// by a watchdog abort within a bounded latency, and the mitigation
// machinery (stalls, reroutes, canaries, metered retries) demonstrably
// ran.
func TestGrayfailAcceptance(t *testing.T) {
	control, stack := replay.Grayfail(2015)
	if control.Stats.Failed != 0 || stack.Stats.Failed != 0 {
		t.Fatalf("failures: control %d, stack %d — gray failures must not hard-fail jobs", control.Stats.Failed, stack.Stats.Failed)
	}
	if s := stack.Goodput() / control.Goodput(); s < 1.2 {
		t.Errorf("speedup = %.3fx, want >= 1.2x (control %.0fs, stack %.0fs)",
			s, control.VirtualSeconds, stack.VirtualSeconds)
	}
	dets := replay.GrayDetections(stack)
	if len(dets) != 2 {
		t.Fatalf("detections = %+v, want the provider-slow and dtn-disk-slow windows", dets)
	}
	for _, d := range dets {
		if d.DetectedAt < 0 {
			t.Errorf("%s window at t=%.0f never detected", d.Fault, d.Start)
			continue
		}
		// The bound: one DefaultBudget is the worst admissible first
		// catch; in practice the adaptive budgets land far below it.
		if lat := d.DetectedAt - d.Start; lat > 600 {
			t.Errorf("%s detection latency %.1fs, want <= 600", d.Fault, lat)
		}
	}
	if stack.Stats.Stalls == 0 || stack.Stats.StallReroutes == 0 {
		t.Errorf("stalls=%d reroutes=%d, want the watchdog to have fired and rerouted", stack.Stats.Stalls, stack.Stats.StallReroutes)
	}
	if stack.Stats.Canaries == 0 {
		t.Error("no canary probes ran — probation re-admission untested by the replay")
	}
	h := stack.Config.Health
	if len(h.Transitions()) == 0 {
		t.Error("no health transitions recorded")
	}
	// Retries stayed within the metered budget: something was spent,
	// nothing exceeded the bucket (Tokens never goes negative and Spent
	// minus earn-backs is bounded by the burst, which denial enforces).
	spent := 0
	for _, b := range h.RetryBudgets() {
		spent += b.Spent
		if b.Tokens < 0 {
			t.Errorf("provider %s bucket at %.1f tokens — overdrawn", b.Provider, b.Tokens)
		}
	}
	if spent == 0 {
		t.Error("retry budget never spent — the hard-error burst should meter at least one retry")
	}
	// The ablation, blind to gray failures, must show none of this.
	if control.Stats.Stalls != 0 || control.Stats.Canaries != 0 || control.Config.Health != nil {
		t.Errorf("ablation ran health machinery: %+v", control.Stats)
	}
}
