package telemetry

import "testing"

func TestBucketBoundaries(t *testing.T) {
	opts := HistOpts{Start: 1, Factor: 2, Buckets: 4} // bounds 1,2,4,8 + Inf
	bounds := opts.bounds()
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},      // at/below the floor lands in the first bucket
		{-3, 0},     // negative clamps low
		{1, 0},      // boundary is inclusive on the upper edge
		{1.0001, 1}, // just past a bound falls to the next bucket
		{2, 1},
		{4, 2},
		{7.9, 3},
		{8, 3},
		{8.1, 4}, // overflow → +Inf bucket
		{1e12, 4},
	}
	for _, c := range cases {
		if got := bucketFor(bounds, c.v); got != c.want {
			t.Errorf("bucketFor(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewRegistry().Histogram("h", "h", HistOpts{Start: 1, Factor: 2, Buckets: 4}).With()
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 6, 20} {
		h.Observe(v)
	}
	var snap *HistSnapshot
	for _, f := range h.fam.Snapshot().Metrics {
		snap = f.Hist
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if snap.Sum != 0.5+1.5+1.5+3+6+20 {
		t.Fatalf("sum = %g", snap.Sum)
	}
	wantCounts := []uint64{1, 2, 1, 1, 1}
	for i := range wantCounts {
		if snap.Counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", snap.Counts, wantCounts)
		}
	}
}
