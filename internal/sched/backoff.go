package sched

import "math"

// backoffCurve shapes retry delays: capped exponential growth with
// proportional jitter, the standard shape for not synchronizing a
// fleet's retries into waves.
type backoffCurve struct {
	// Base is the first delay in seconds.
	Base float64
	// Max caps the delay.
	Max float64
	// Factor multiplies the delay per attempt.
	Factor float64
	// Jitter is the fraction of the delay randomized away: 0 is fully
	// deterministic, 0.5 spreads delays over [0.5d, d).
	Jitter float64
}

// retryBackoff is the scheduler's retry curve. Its jitter and the
// cache's bandit draw from fixed-seed sources, so runs are
// reproducible.
var retryBackoff = backoffCurve{Base: 0.05, Max: 2, Factor: 2, Jitter: 0.5}

// Delay returns the delay before retry number attempt (1-based: the
// delay after the first failure is Delay(1, ·)). u is a uniform [0,1)
// draw supplied by the caller, which keeps this type stateless and the
// caller in charge of rng locking and seeding.
func (b backoffCurve) Delay(attempt int, u float64) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base * math.Pow(b.Factor, float64(attempt-1))
	if d > b.Max {
		d = b.Max
	}
	return d * (1 - b.Jitter*u)
}
