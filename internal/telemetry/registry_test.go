package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "Jobs.", "route").With("direct")
	c.Inc()
	c.Add(2)
	c.Add(-5) // counters reject negative deltas
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %g, want 3", got)
	}
	g := reg.Gauge("depth", "Queue depth.").With()
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestFamilyGetDoesNotCreate(t *testing.T) {
	reg := NewRegistry()
	f := reg.Counter("rejects_total", "Rejects.", "reason")
	if m := f.Get("queue-full"); m != nil {
		t.Fatalf("Get on an absent child = %v, want nil", m)
	}
	if v := f.Get("queue-full").Value(); v != 0 {
		t.Fatalf("absent child reads %g, want 0", v)
	}
	snap := reg.Snapshot()
	if len(snap.Families) != 1 || len(snap.Families[0].Metrics) != 0 {
		t.Fatalf("reading through Get added children: %+v", snap.Families)
	}
	f.With("queue-full").Add(2)
	if got := f.Get("queue-full"); got != f.With("queue-full") || got.Value() != 2 {
		t.Fatalf("Get after With = %v (%g), want the created child at 2", got, got.Value())
	}
	if n := len(reg.Snapshot().Families[0].Metrics); n != 1 {
		t.Fatalf("snapshot has %d children, want 1", n)
	}
	var nf *Family
	if nf.Get("x") != nil {
		t.Fatal("Get on a nil family should return nil")
	}
}

func TestFamilyReuseAndMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.", "route")
	b := reg.Counter("x_total", "X.", "route")
	if a != b {
		t.Fatal("re-registering the same family should return the same handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	reg.Gauge("x_total", "X.", "route")
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	m := reg.Counter("n_total", "nil").With()
	m.Inc()
	m.Add(3)
	m.Observe(1)
	if m.Value() != 0 {
		t.Fatal("nil metric should read 0")
	}
	if len(reg.Snapshot().Families) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
	var rec *FlightRecorder
	rec.Begin().Note("k")
	rec.Finish(Trace{}, "j", true)
	rec.Finish(rec.Begin(), "j", true)
	if rec.Retained() != nil {
		t.Fatal("nil recorder should retain nothing")
	}
	var samp *Sampler
	samp.Track("x", func() float64 { return 0 })
	samp.Restart()
	samp.StopAll()
	if samp.Snapshot() != nil {
		t.Fatal("nil sampler snapshot should be nil")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() Snapshot {
		reg := NewRegistry()
		// Register in scrambled order with scrambled children.
		reg.Gauge("zeta", "z")
		reg.Counter("alpha_total", "a", "route").With("detour").Inc()
		reg.Counter("alpha_total", "a", "route").With("direct").Add(2)
		reg.Histogram("mid_seconds", "m", HistOpts{Start: 1, Factor: 2, Buckets: 4}).With().Observe(3)
		reg.Gauge("zeta", "z").With().Set(9)
		return reg.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("prometheus dumps differ:\n%s\n---\n%s", a.String(), b.String())
	}
	s := build()
	names := make([]string, len(s.Families))
	for i, f := range s.Families {
		names[i] = f.Name
	}
	want := []string{"alpha_total", "mid_seconds", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("family order = %v, want %v", names, want)
		}
	}
	if s.Families[0].Metrics[0].LabelValues[0] != "detour" ||
		s.Families[0].Metrics[1].LabelValues[0] != "direct" {
		t.Fatalf("children not sorted by label value: %+v", s.Families[0].Metrics)
	}
}

func TestExportFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bytes_total", "Bytes moved.", "route").With("direct").Add(1.25e6)
	h := reg.Histogram("lat_seconds", "Latency.", HistOpts{Start: 0.5, Factor: 2, Buckets: 3}).With()
	h.Observe(0.4)
	h.Observe(3)
	h.Observe(100)
	snap := reg.Snapshot()

	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bytes_total{route="direct"} 1.25e+06`,
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 1`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_sum 103.4`,
		`lat_seconds_count 3`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, prom.String())
		}
	}
}

// TestRegistryHotPathRace hammers one child from many goroutines; run
// under -race this is the registry's data-race guard.
func TestRegistryHotPathRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("race_total", "r").With()
	g := reg.Gauge("race_gauge", "r").With()
	h := reg.Histogram("race_seconds", "r", HistOpts{}).With()
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%97) / 10)
				if i%100 == 0 {
					reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %g, want %d", got, workers*per)
	}
	var snap *HistSnapshot
	for _, f := range reg.Snapshot().Families {
		if f.Name == "race_seconds" {
			snap = f.Metrics[0].Hist
		}
	}
	if snap == nil || snap.Count != workers*per {
		t.Fatalf("histogram count = %+v, want %d", snap, workers*per)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "b").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "b", HistOpts{}).With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 100)
	}
}
