package telemetry

import (
	"math"
	"sort"
)

// HistOpts describes a log-bucketed histogram: Buckets upper bounds
// starting at Start and growing by Factor, plus an implicit +Inf
// overflow bucket. The defaults (1 ms doubling 22 times, topping out
// around 35 minutes) cover sub-millisecond scheduler latencies through
// long parked-transfer drain times.
type HistOpts struct {
	// Start is the first (smallest) upper bound. Default 0.001.
	Start float64
	// Factor is the geometric growth between consecutive bounds.
	// Default 2.
	Factor float64
	// Buckets is the number of finite bounds. Default 22.
	Buckets int
}

func (o HistOpts) withDefaults() HistOpts {
	if o.Start <= 0 {
		o.Start = 0.001
	}
	if o.Factor <= 1 {
		o.Factor = 2
	}
	if o.Buckets <= 0 {
		o.Buckets = 22
	}
	return o
}

// bounds materializes the finite upper bounds. Bounds are computed as
// Start*Factor^i in one multiplication chain, so two histograms built
// from equal opts share bit-identical bounds.
func (o HistOpts) bounds() []float64 {
	o = o.withDefaults()
	b := make([]float64, o.Buckets)
	v := o.Start
	for i := range b {
		b[i] = v
		v *= o.Factor
	}
	return b
}

// bucketFor places v in the first bucket whose upper bound is >= v
// (bucket i counts values in (bounds[i-1], bounds[i]]); values above
// the last bound land in the +Inf overflow bucket at index len(bounds).
func bucketFor(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// HistSnapshot is a point-in-time copy of one histogram child: Counts
// has len(Bounds)+1 entries, the last being the +Inf overflow bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile returns an estimate of the q-quantile (0..1) assuming values
// sit at their bucket's upper bound — a deliberately conservative
// (over-) estimate that is stable across runs. Returns 0 on an empty
// histogram; the overflow bucket reports +Inf.
func (h *HistSnapshot) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Mean returns Sum/Count (0 when empty).
func (h *HistSnapshot) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
