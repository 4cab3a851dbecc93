package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runner drives one workload batch by batch. setup builds a batch's
// inputs from its seed (timed as set-up, outside the measured phase);
// run executes them and returns the ops it completed. Both time their
// calls into the layers when tr is non-nil. report adds the metrics the
// runner pooled over every batch and returns the output-check
// violations, each naming one op or invariant that went wrong.
type runner interface {
	setup(seed int64, tr *tracer)
	run(tr *tracer) int
	report(add func(name string, m metric)) []string
}

// benchWorkload is one named input set of the ledger.
type benchWorkload struct {
	name, loop string
	// size describes one batch at full and at -quick size.
	size, quickSize string
	// seedsPerBatch is how many consecutive seeds one batch consumes.
	seedsPerBatch, quickSeedsPerBatch int
	// batchSeconds is one full batch's measured wall time on the
	// reference 2-core box: -seconds divided by it fixes the batch count,
	// so two commits run identical work.
	batchSeconds float64
	newRunner    func(quick bool) runner
}

func (w *benchWorkload) batches(o options) int {
	if o.quick {
		return 2
	}
	return max(2, int(math.Round(o.seconds/w.batchSeconds)))
}

func (w *benchWorkload) seedStride(quick bool) int {
	if quick {
		return w.quickSeedsPerBatch
	}
	return w.seedsPerBatch
}

// options are one run's settings.
type options struct {
	seed       int64
	seconds    float64
	trace      bool
	quick      bool
	cpuprofile string
}

// metric is one reported number: a median over batches (with its
// quartiles and batch count) or a value pooled over the run (quartiles
// equal to it, n its sample count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// record is one workload's complete result, the unit of the ledger.
type record struct {
	Workload   string            `json:"workload"`
	Loop       string            `json:"loop"`
	Size       string            `json:"size"`
	Seed       int64             `json:"seed"`
	Batches    int               `json:"batches"`
	Traced     bool              `json:"traced"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Correct    bool              `json:"correct"`
	Violations []string          `json:"violations"`
	Metrics    map[string]metric `json:"metrics"`
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// summarize is the median of per-batch values with its quartiles.
func summarize(vals []float64) metric {
	s := sortedCopy(vals)
	return metric{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// pooled is a single value computed over n samples.
func pooled(v float64, n int) metric { return metric{Value: v, Q1: v, Q3: v, N: n} }

// percentiles adds name_p50 and name_p99 over samples.
func percentiles(add func(string, metric), name string, samples []float64) {
	s := sortedCopy(samples)
	add(name+"_p50", pooled(quantile(s, 0.5), len(s)))
	add(name+"_p99", pooled(quantile(s, 0.99), len(s)))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// tracer collects one traced batch's layer timings. A nil *tracer is an
// untraced batch: every method is a no-op and start skips the clock.
type tracer struct {
	calls map[string][]float64     // per-call wall µs, by call name
	sums  map[string]time.Duration // accumulated wall, by name
	vals  map[string]float64       // per-batch metric values
}

func newTracer() *tracer {
	return &tracer{calls: map[string][]float64{}, sums: map[string]time.Duration{}, vals: map[string]float64{}}
}

func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// call records one call's wall time; the batch reports name_us_p50/p99.
func (t *tracer) call(name string, t0 time.Time) {
	if t != nil {
		t.calls[name] = append(t.calls[name], float64(time.Since(t0))/1e3)
	}
}

// sum adds wall time since t0 to the named total.
func (t *tracer) sum(name string, t0 time.Time) {
	if t != nil {
		t.sums[name] += time.Since(t0)
	}
}

// set records a per-batch metric value.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.vals[name] = v
	}
}

// flush appends the batch's values to the per-batch series.
func (t *tracer) flush(series map[string][]float64) {
	for name, us := range t.calls {
		s := sortedCopy(us)
		series[name+"_us_p50"] = append(series[name+"_us_p50"], quantile(s, 0.5))
		series[name+"_us_p99"] = append(series[name+"_us_p99"], quantile(s, 0.99))
	}
	for name, v := range t.vals {
		series[name] = append(series[name], v)
	}
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runWorkload runs one workload in this process and returns its record.
// With o.trace, odd batches are traced: their layer calls are timed and
// CPU-profiled, even batches run bare, and trace.overhead_frac compares
// the two halves' throughput.
func runWorkload(w *benchWorkload, o options) (*record, error) {
	r := w.newRunner(o.quick)
	n := w.batches(o)
	size := w.size
	if o.quick {
		size = w.quickSize
	}
	rec := &record{Workload: w.name, Loop: w.loop, Size: size, Seed: o.seed, Batches: n, Traced: o.trace, Metrics: map[string]metric{}}
	var prof *profiler
	if o.trace {
		var err error
		if prof, err = newProfiler(); err != nil {
			return nil, err
		}
		defer prof.cleanup()
	}

	series := map[string][]float64{}
	var tracedRates []float64
	for i := 0; i < n; i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = newTracer()
		}
		t0 := time.Now()
		r.setup(o.seed+int64(i*w.seedStride(o.quick)), tr)
		series["setup_s"] = append(series["setup_s"], time.Since(t0).Seconds())

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, cpu0 := gcCPU()
		if tr != nil {
			if err := prof.start(); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		ops := r.run(tr)
		wall := time.Since(t1).Seconds()
		if tr != nil {
			if err := prof.stop(); err != nil {
				return nil, err
			}
		}
		gc1, cpu1 := gcCPU()
		runtime.ReadMemStats(&m1)
		rec.Attempted += ops
		if cpu1 > cpu0 {
			series["runtime.gc_cpu_frac"] = append(series["runtime.gc_cpu_frac"], (gc1-gc0)/(cpu1-cpu0))
		}
		if tr != nil {
			tracedRates = append(tracedRates, float64(ops)/wall)
			tr.flush(series)
			continue
		}
		series["ops_per_s"] = append(series["ops_per_s"], float64(ops)/wall)
		series["alloc_bytes_per_op"] = append(series["alloc_bytes_per_op"], float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
	}

	add := func(name string, m metric) {
		d, ok := lookupMetric(name)
		if !ok {
			panic("detourledger: metric " + name + " is not in metricDefs")
		}
		m.Unit = d.unit
		rec.Metrics[name] = m
	}
	for name, vals := range series {
		add(name, summarize(vals))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	add("peak_rss_mb", pooled(rss, 1))
	if o.trace {
		bare := summarize(series["ops_per_s"]).Value
		traced := summarize(tracedRates).Value
		add("trace.overhead_frac", pooled(bare/traced-1, len(tracedRates)))
		shares, samples, err := prof.shares(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		for _, m := range append([]string{"runtime", "bench"}, modules...) {
			add("cpu_share."+m, pooled(shares[m], samples))
		}
	}
	rec.Violations = r.report(add)
	if rec.Violations == nil {
		rec.Violations = []string{}
	}
	rec.Failed = min(len(rec.Violations), rec.Attempted)
	rec.Correct = len(rec.Violations) == 0
	return rec, nil
}
