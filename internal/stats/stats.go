// Package stats provides the small statistical toolkit used by the
// measurement harness: means, sample standard deviations, confidence
// half-widths, and the paper's "mean of the last five of seven runs"
// estimator.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice:
// every call site has a fixed, known-positive run count, so an empty
// input is a harness bug.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
// A single observation has zero deviation by convention.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: StdDev of empty slice")
	}
	if len(xs) == 1 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Quantile returns the exact q-quantile of xs (0 <= q <= 1) without
// mutating it, using linear interpolation between closest ranks (the
// R-7 / spreadsheet convention): Quantile(xs, 0.5) == Median(xs).
// "Exact" is in contrast to streaming estimators — the whole sample is
// sorted, so repeated calls on the same data are bit-identical, which
// the multipath straggler detector relies on for deterministic replays.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile with q=%v outside [0,1]", q))
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if len(cp) == 1 {
		return cp[0]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// JainFairness returns Jain's fairness index over xs:
// (Σx)² / (n·Σx²). It is 1 when every element is equal, 1/n when one
// element holds everything, and scale-invariant in between — the
// standard way to score how evenly K paths split a striped transfer.
// An all-zero sample is perfectly fair by convention.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: JainFairness of empty slice")
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			panic("stats: JainFairness with negative share")
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// EWMA is an exponentially weighted moving average — the streaming
// baseline estimator the health layer keeps per route/DTN/provider.
// The zero value is unusable; construct with NewEWMA. The first
// observation seeds the average directly (matching the bandit's
// convention) so a single sample is already a usable baseline.
type EWMA struct {
	alpha float64
	v     float64
	n     int
}

// NewEWMA returns an EWMA with the given smoothing factor (0 < alpha
// <= 1; larger tracks faster).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v outside (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v = e.alpha*x + (1-e.alpha)*e.v
	}
	e.n++
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.v }

// Count returns how many samples have been folded in.
func (e *EWMA) Count() int { return e.n }

// Summary holds the statistics the paper reports for one measurement
// cell: the mean of the retained runs and one standard deviation.
type Summary struct {
	Mean   float64
	StdDev float64
	N      int // retained runs
}

// LastN returns the estimator used throughout the paper: discard the
// first len(xs)-n warm-up runs and summarize the final n. If xs has at
// most n elements every run is retained.
func LastN(xs []float64, n int) Summary {
	if n <= 0 {
		panic("stats: LastN with n <= 0")
	}
	if len(xs) == 0 {
		panic("stats: LastN of empty slice")
	}
	if len(xs) > n {
		xs = xs[len(xs)-n:]
	}
	return Summary{Mean: Mean(xs), StdDev: StdDev(xs), N: len(xs)}
}

// RelativeChange returns the percentage change of x versus base, the
// quantity printed in square brackets in Tables II and III (negative
// means x is faster/smaller than base).
func RelativeChange(base, x float64) float64 {
	if base == 0 {
		panic("stats: RelativeChange with zero base")
	}
	return (x - base) / base * 100
}

// FormatRelative renders a relative change the way the paper prints it,
// e.g. "-31.52%" or "+62.95%".
func FormatRelative(pct float64) string {
	return fmt.Sprintf("%+.2f%%", pct)
}

// Interval returns the ±1σ interval [Mean-StdDev, Mean+StdDev] that the
// paper uses for error bars and the Table IV overlap argument.
func (s Summary) Interval() (lo, hi float64) {
	return s.Mean - s.StdDev, s.Mean + s.StdDev
}

// Overlaps reports whether the ±1σ intervals of two summaries intersect —
// the paper's criterion for "statistically unsure benefit" (Sec III-B).
func (s Summary) Overlaps(o Summary) bool {
	slo, shi := s.Interval()
	olo, ohi := o.Interval()
	return slo <= ohi && olo <= shi
}
