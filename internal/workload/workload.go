// Package workload generates synthetic personal-cloud-storage workloads:
// file-size distributions and arrival processes. The paper argues that
// routing inefficiencies "have a real impact on many users" because
// cloud-storage traffic is a growing class; this package makes that
// claim testable by replaying realistic job mixes through the detour
// system (see the workload study in package experiments).
//
// The size distribution shapes follow the measurement literature the
// paper builds on (Drago et al., IMC'12/13): personal cloud files are
// dominated by small objects with a heavy multi-megabyte tail from
// photos, archives, and videos.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// SizeDist samples file sizes in bytes.
type SizeDist interface {
	Sample(rng *rand.Rand) float64
}

// Fixed always returns the same size.
type Fixed struct {
	Bytes float64
}

// Sample implements SizeDist.
func (f Fixed) Sample(*rand.Rand) float64 { return f.Bytes }

// Lognormal is the classic heavy-tailed file-size model.
type Lognormal struct {
	// MedianBytes is exp(mu).
	MedianBytes float64
	// Sigma is the log-space standard deviation; 1.5–2.5 gives the
	// heavy tails seen in storage traces.
	Sigma float64
}

// Sample implements SizeDist.
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	x := l.MedianBytes * math.Exp(l.Sigma*rng.NormFloat64())
	if x < 1 {
		x = 1
	}
	return x
}

// Empirical samples from weighted buckets.
type Empirical struct {
	Sizes   []float64
	Weights []float64

	cum []float64
}

// NewEmpirical builds a weighted discrete distribution.
func NewEmpirical(sizes, weights []float64) (*Empirical, error) {
	if len(sizes) == 0 || len(sizes) != len(weights) {
		return nil, fmt.Errorf("workload: sizes/weights mismatch")
	}
	e := &Empirical{Sizes: sizes, Weights: weights}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("workload: negative weight")
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: zero total weight")
	}
	acc := 0.0
	for _, w := range weights {
		acc += w / total
		e.cum = append(e.cum, acc)
	}
	return e, nil
}

// Sample implements SizeDist.
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.Sizes) {
		i = len(e.Sizes) - 1
	}
	return e.Sizes[i]
}

// PersonalCloud returns a size mix calibrated to personal cloud-storage
// sync traffic: documents and thumbnails dominate counts, photos and
// media dominate bytes.
func PersonalCloud() SizeDist {
	e, err := NewEmpirical(
		[]float64{50e3, 300e3, 2e6, 8e6, 30e6, 100e6},
		[]float64{40, 25, 15, 10, 7, 3},
	)
	if err != nil {
		panic(err)
	}
	return e
}

// Arrival samples inter-arrival gaps in seconds.
type Arrival interface {
	NextGap(rng *rand.Rand) float64
}

// Poisson arrivals with the given mean rate.
type Poisson struct {
	RatePerSec float64
}

// NextGap implements Arrival.
func (p Poisson) NextGap(rng *rand.Rand) float64 {
	if p.RatePerSec <= 0 {
		panic("workload: non-positive rate")
	}
	return rng.ExpFloat64() / p.RatePerSec
}

// Phase is one constant-rate segment of a piecewise arrival process.
type Phase struct {
	// RatePerSec is the Poisson arrival rate during the phase.
	RatePerSec float64
	// Seconds is the phase duration; 0 on the final phase means it runs
	// forever.
	Seconds float64
}

// FlashCrowd is a piecewise-constant-rate Poisson arrival process — the
// overload workload: a calm baseline, a burst phase at several times
// the sustainable rate, then calm again. It is stateful (it tracks its
// own position in the phase schedule), so use one value per generated
// trace. Gaps crossing a phase boundary are re-drawn from the boundary,
// which is exact for a Poisson process (memorylessness).
type FlashCrowd struct {
	Phases []Phase

	t float64
}

// NewFlashCrowd validates the schedule: every phase needs a positive
// rate, and only the final phase may be unbounded.
func NewFlashCrowd(phases ...Phase) (*FlashCrowd, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: flash crowd needs phases")
	}
	for i, ph := range phases {
		if ph.RatePerSec <= 0 {
			return nil, fmt.Errorf("workload: phase %d has non-positive rate", i)
		}
		if ph.Seconds <= 0 && i != len(phases)-1 {
			return nil, fmt.Errorf("workload: non-final phase %d has no duration", i)
		}
	}
	return &FlashCrowd{Phases: phases}, nil
}

// NextGap implements Arrival.
func (f *FlashCrowd) NextGap(rng *rand.Rand) float64 {
	if len(f.Phases) == 0 {
		panic("workload: flash crowd with no phases")
	}
	start := f.t
	for {
		i, phaseStart := f.phaseAt(f.t)
		ph := f.Phases[i]
		if ph.RatePerSec <= 0 {
			panic("workload: non-positive flash-crowd rate")
		}
		gap := rng.ExpFloat64() / ph.RatePerSec
		last := i == len(f.Phases)-1
		if last || ph.Seconds <= 0 || f.t+gap <= phaseStart+ph.Seconds {
			f.t += gap
			return f.t - start
		}
		// The draw overshot the phase boundary: move to the boundary and
		// re-draw at the next phase's rate.
		f.t = phaseStart + ph.Seconds
	}
}

// phaseAt locates the phase containing time t and the phase's start.
func (f *FlashCrowd) phaseAt(t float64) (idx int, start float64) {
	acc := 0.0
	for i, ph := range f.Phases {
		if i == len(f.Phases)-1 || ph.Seconds <= 0 || t < acc+ph.Seconds {
			return i, acc
		}
		acc += ph.Seconds
	}
	return len(f.Phases) - 1, acc
}

// Job is one upload task.
type Job struct {
	Name string
	// At is the arrival offset in seconds from the workload start.
	At float64
	// Size is the file size in bytes.
	Size float64
}

// Generate produces n jobs with the given size and arrival models,
// deterministically from the rng.
func Generate(n int, sizes SizeDist, arrivals Arrival, rng *rand.Rand) []Job {
	if n <= 0 {
		panic("workload: non-positive job count")
	}
	if sizes == nil || arrivals == nil || rng == nil {
		panic("workload: nil argument")
	}
	jobs := make([]Job, n)
	t := 0.0
	for i := range jobs {
		t += arrivals.NextGap(rng)
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%04d.bin", i),
			At:   t,
			Size: sizes.Sample(rng),
		}
	}
	return jobs
}

// FleetJob is one job of a multi-tenant, multi-site trace: a Job plus
// who submits it, from where, and to which provider — the input shape
// of the transfer-scheduler control plane (package sched).
type FleetJob struct {
	Job
	Tenant   string
	Client   string
	Provider string
	// Priority is a small non-negative queueing priority; higher drains
	// sooner.
	Priority int
	// Deadline, when positive, is the workload-clock time after which
	// the job is worthless (FleetSpec.DeadlineSlack sets it).
	Deadline float64
}

// FleetSpec describes a fleet trace.
type FleetSpec struct {
	// Jobs is the trace length.
	Jobs int
	// Clients and Providers are sampled uniformly per job.
	Clients   []string
	Providers []string
	// Tenants defaults to Clients (per-site tenancy) when nil.
	Tenants []string
	// Sizes and Arrivals are the per-job models (defaults:
	// PersonalCloud sizes, Poisson 1 job/sec).
	Sizes    SizeDist
	Arrivals Arrival
	// PriorityLevels spreads jobs over priorities 0..n-1 (default 3).
	PriorityLevels int
	// Prefix names the jobs ("<prefix>-00042.bin", default "fleet") —
	// set distinct prefixes when merging several traces so object names
	// stay unique.
	Prefix string
	// DeadlineSlack, when positive, gives every job a deadline of its
	// arrival time plus this many seconds — the overload traces use it
	// so queue-rotted jobs can expire.
	DeadlineSlack float64
}

// GenerateFleet produces a fleet trace deterministically from the rng:
// every job gets a client, provider, tenant, priority, size, and
// arrival offset.
func GenerateFleet(spec FleetSpec, rng *rand.Rand) ([]FleetJob, error) {
	if spec.Jobs <= 0 {
		return nil, fmt.Errorf("workload: non-positive fleet size")
	}
	if len(spec.Clients) == 0 || len(spec.Providers) == 0 {
		return nil, fmt.Errorf("workload: fleet needs clients and providers")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: fleet needs an rng")
	}
	tenants := spec.Tenants
	if len(tenants) == 0 {
		tenants = spec.Clients
	}
	sizes := spec.Sizes
	if sizes == nil {
		sizes = PersonalCloud()
	}
	arrivals := spec.Arrivals
	if arrivals == nil {
		arrivals = Poisson{RatePerSec: 1}
	}
	levels := spec.PriorityLevels
	if levels <= 0 {
		levels = 3
	}
	prefix := spec.Prefix
	if prefix == "" {
		prefix = "fleet"
	}
	jobs := make([]FleetJob, spec.Jobs)
	t := 0.0
	for i := range jobs {
		t += arrivals.NextGap(rng)
		ci := rng.Intn(len(spec.Clients))
		tenant := spec.Clients[ci]
		if len(spec.Tenants) > 0 {
			tenant = tenants[rng.Intn(len(tenants))]
		}
		jobs[i] = FleetJob{
			Job: Job{
				Name: fmt.Sprintf("%s-%05d.bin", prefix, i),
				At:   t,
				Size: sizes.Sample(rng),
			},
			Tenant:   tenant,
			Client:   spec.Clients[ci],
			Provider: spec.Providers[rng.Intn(len(spec.Providers))],
			Priority: rng.Intn(levels),
		}
		if spec.DeadlineSlack > 0 {
			jobs[i].Deadline = t + spec.DeadlineSlack
		}
	}
	return jobs, nil
}

// MergeFleet interleaves independently generated traces into one,
// ordered by arrival time (ties resolve by trace order, then by
// position — the merge is deterministic). Use it to overlay a
// flash-crowd tenant onto a steady baseline fleet.
func MergeFleet(traces ...[]FleetJob) []FleetJob {
	var n int
	for _, t := range traces {
		n += len(t)
	}
	out := make([]FleetJob, 0, n)
	idx := make([]int, len(traces))
	for len(out) < n {
		best := -1
		for ti, t := range traces {
			if idx[ti] >= len(t) {
				continue
			}
			if best < 0 || t[idx[ti]].At < traces[best][idx[best]].At {
				best = ti
			}
		}
		out = append(out, traces[best][idx[best]])
		idx[best]++
	}
	return out
}
