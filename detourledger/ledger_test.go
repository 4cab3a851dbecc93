package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

// The hand-solved allocation: links of 10, 6 and 4 B/s; flow a crosses
// links 0 and 1, b crosses 1 and 2, c crosses 0, d crosses 2 capped at 1.
// Progressive filling freezes d at its cap (1), then a and b when links
// 1 and 2 saturate (3 each), then c when link 0 saturates (7).
var (
	handAvail = []float64{10, 6, 4}
	handLinks = [][]int{{0, 1}, {1, 2}, {0}, {2}}
	handCaps  = []float64{math.Inf(1), math.Inf(1), math.Inf(1), 1}
	handRates = []float64{3, 3, 7, 1}
)

func handFlows(rates []float64) []mmFlow {
	flows := make([]mmFlow, len(rates))
	for i, r := range rates {
		flows[i] = mmFlow{rate: r, cap: handCaps[i], links: handLinks[i]}
	}
	return flows
}

func TestMaxMinOracle(t *testing.T) {
	if err := checkMaxMin(handAvail, handFlows(handRates)); err != nil {
		t.Fatalf("hand-solved allocation rejected: %v", err)
	}
	for name, rates := range map[string][]float64{
		"a starved for c":  {2, 3, 8, 1},
		"link 0 over":      {3, 3, 7.5, 1},
		"d below its cap":  {3, 3, 7, 0.5},
		"b short of share": {3, 2.5, 7, 1},
	} {
		if err := checkMaxMin(handAvail, handFlows(rates)); err == nil {
			t.Errorf("%s: perturbed allocation %v accepted", name, rates)
		}
	}

	// The fluid allocator reaches the same answer on the same network.
	net := fluid.New(simclock.NewEngine())
	links := make([]*fluid.Link, len(handAvail))
	for i, a := range handAvail {
		links[i] = net.AddLink(string(rune('A'+i)), a, 0)
	}
	var flows []*fluid.Flow
	for i, ls := range handLinks {
		var path []*fluid.Link
		for _, l := range ls {
			path = append(path, links[l])
		}
		capRate := handCaps[i]
		if math.IsInf(capRate, 1) {
			capRate = 0
		}
		flows = append(flows, net.StartFlow(path, 1e9, fluid.FlowOpts{RateCap: capRate}))
	}
	for i, f := range flows {
		if math.Abs(f.Rate()-handRates[i]) > 1e-9 {
			t.Errorf("fluid flow %d rate %v, hand-solved %v", i, f.Rate(), handRates[i])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	ops := metricDef{name: "ops", better: "higher", bound: 0.10}
	success, _ := lookupMetric("success_frac")
	lat, _ := lookupMetric("fluid.startflow_us_p50")
	m := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3} }
	base := m(100, 99, 101)
	for _, c := range []struct {
		d        metricDef
		old, new metric
		want     string
	}{
		{ops, base, m(120, 119, 121), "better"},
		{ops, base, m(80, 79, 81), "worse"},
		{ops, base, m(95, 80, 110), "unresolved"},
		{ops, base, m(101, 100, 102), "unchanged"},
		{ops, m(100, 85, 115), m(60, 58, 62), "worse"}, // noisy, but the quartiles part
		{ops, m(100, 85, 115), m(80, 70, 90), "unresolved"},
		{success, pooled(0.99, 1), pooled(0.989, 1), "worse"},
		{success, pooled(0.99, 1), pooled(0.991, 1), "unchanged"},
		{lat, pooled(10, 1), pooled(20, 1), "info"},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.d.name, c.old, c.new, got, c.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for want, stack := range map[string][]string{
		"simclock": {"runtime.mallocgc", "runtime.newobject", "detournet/internal/simclock.(*Engine).Schedule", "detournet/internal/fluid.(*Network).reallocate"},
		"simproc":  {"runtime.asyncPreempt", "fmt.Sprintf", "detournet/internal/simproc.(*Proc).Sleep", "detournet/internal/httpsim.(*Server).serveConn"},
		"sched":    {"sync.(*Mutex).Lock", "detournet/internal/sched.(*Scheduler).worker.func1"},
		"bench":    {"main.checkMaxMin", "main.(*stressBatch).settle", "detournet/internal/fluid.(*Network).complete"},
		"runtime":  {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
	} {
		if got := attribute(stack); got != want {
			t.Errorf("attribute(%v) = %q, want %q", stack, got, want)
		}
	}

	text := `File: detourledger
Type: cpu
Duration: 1.64s, Total samples = 1.34s (81.60%)
-----------+-------------------------------------------------------
      20ms   detournet/internal/simclock.eventHeap.Swap
             container/heap.Pop
             detournet/internal/simclock.(*Engine).Run (inline)
-----------+-------------------------------------------------------
     1.01s   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	traces, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace{
		{20 * time.Millisecond, []string{"detournet/internal/simclock.eventHeap.Swap", "container/heap.Pop", "detournet/internal/simclock.(*Engine).Run"}},
		{1010 * time.Millisecond, []string{"runtime.gcBgMarkWorker"}},
	}
	if !reflect.DeepEqual(traces, want) {
		t.Errorf("parseTraces = %+v, want %+v", traces, want)
	}
}

// TestQuickSmoke runs every workload at -quick size and checks that
// each passes its output checks and reports every end-to-end metric.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	start := time.Now()
	for _, w := range workloads {
		rec, err := runWorkload(w, options{seed: goldenSeed, seconds: 1, quick: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d violations=%v", w.name, rec.Correct, rec.Attempted, rec.Violations)
		}
		for _, d := range listedMetrics(false) {
			if v := rec.Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
			}
		}
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("quick smoke run took %v, want under 10s", el)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json, the metric table and the
// module list in step.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		list   []entry
		traced bool
	}{{bench.EndToEnd, false}, {bench.PerLayer, true}} {
		defs := listedMetrics(c.traced)
		if len(c.list) != len(defs) {
			t.Errorf("traced=%v: BENCHMARK.json lists %d metrics, the table %d", c.traced, len(c.list), len(defs))
			continue
		}
		for i, d := range defs {
			e := c.list[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || (e.Bound != nil) != !c.traced || (e.Bound != nil && *e.Bound != d.bound) {
				t.Errorf("BENCHMARK.json entry %+v does not match table entry %+v", e, d)
			}
		}
	}

	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	var mods []string
	for _, d := range dirs {
		if d.IsDir() {
			mods = append(mods, d.Name())
		}
	}
	if !reflect.DeepEqual(mods, modules) {
		t.Errorf("internal modules %v, cpu_share table %v", mods, modules)
	}
}
