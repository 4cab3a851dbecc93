package sched

import (
	"math/rand"
	"testing"
)

// TestBackoffDelayTable pins Delay's edge behavior case by case:
// attempt clamping, cap saturation (including absurd attempt numbers
// that would overflow a naive accumulator), and the scheduler's
// retryBackoff curve.
func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		name    string
		b       backoffCurve
		attempt int
		u       float64
		want    float64
	}{
		{"attempt 0 clamps to 1", backoffCurve{Base: 1, Max: 100, Factor: 2, Jitter: 0.5}, 0, 0, 1},
		{"negative attempt clamps to 1", backoffCurve{Base: 1, Max: 100, Factor: 2, Jitter: 0.5}, -3, 0, 1},
		{"second retry doubles", backoffCurve{Base: 1, Max: 100, Factor: 2, Jitter: 0.5}, 2, 0, 2},
		{"cap saturates", backoffCurve{Base: 1, Max: 8, Factor: 2, Jitter: 0.5}, 5, 0, 8},
		{"huge attempt stays at cap", backoffCurve{Base: 1, Max: 8, Factor: 2, Jitter: 0.5}, 500, 0, 8},
		{"defaults: first delay is 0.05", retryBackoff, 1, 0, 0.05},
		{"defaults: cap is 2", retryBackoff, 50, 0, 2},
		{"full jitter draw halves the delay", backoffCurve{Base: 1, Max: 100, Factor: 2, Jitter: 0.5}, 1, 1, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.b.Delay(tc.attempt, tc.u); got != tc.want {
				t.Errorf("Delay(%d, %v) = %v, want %v", tc.attempt, tc.u, got, tc.want)
			}
		})
	}
}

// TestBackoffJitterBound: for any u in [0,1), the jittered delay stays
// within (d·(1-Jitter), d] of the deterministic curve — never zero,
// never above the un-jittered value.
func TestBackoffJitterBound(t *testing.T) {
	b := backoffCurve{Base: 0.2, Max: 10, Factor: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 8; attempt++ {
		full := b.Delay(attempt, 0)
		for i := 0; i < 200; i++ {
			d := b.Delay(attempt, rng.Float64())
			if d <= full*(1-b.Jitter) || d > full {
				t.Fatalf("Delay(%d) = %v outside (%v, %v]", attempt, d, full*(1-b.Jitter), full)
			}
		}
	}
}
