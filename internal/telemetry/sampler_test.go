package telemetry

import (
	"reflect"
	"testing"

	"detournet/internal/simclock"
)

func TestSeriesWraparound(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 10; i++ {
		s.push(float64(i), float64(i)*10)
	}
	snap := s.snapshot("w")
	if snap.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", snap.Dropped)
	}
	if len(snap.Values) != 4 {
		t.Fatalf("len = %d, want 4", len(snap.Values))
	}
	for i, wantT := range []float64{6, 7, 8, 9} {
		if snap.Times[i] != wantT || snap.Values[i] != wantT*10 {
			t.Fatalf("snapshot = %+v, want last four samples in order", snap)
		}
	}
	if snap.Last() != 90 || snap.Min() != 60 || snap.Max() != 90 {
		t.Fatalf("last/min/max = %g/%g/%g", snap.Last(), snap.Min(), snap.Max())
	}
}

// refRing is the series as a ring preallocated to its capacity, the
// oracle for the one that grows by append.
type refRing struct {
	times, values  []float64
	start, n, drop int
}

func (r *refRing) push(t, v float64) {
	c := len(r.times)
	if r.n < c {
		idx := (r.start + r.n) % c
		r.times[idx], r.values[idx] = t, v
		r.n++
		return
	}
	r.times[r.start], r.values[r.start] = t, v
	r.start = (r.start + 1) % c
	r.drop++
}

func (r *refRing) snapshot(name string) SeriesSnapshot {
	c := len(r.times)
	out := SeriesSnapshot{Name: name, Times: make([]float64, r.n), Values: make([]float64, r.n), Dropped: r.drop}
	for i := 0; i < r.n; i++ {
		out.Times[i], out.Values[i] = r.times[(r.start+i)%c], r.values[(r.start+i)%c]
	}
	return out
}

// A series that grows by append gives the same snapshot as the
// preallocated ring at every length: empty, part full, exactly full,
// and wrapped around more than once.
func TestSeriesGrowsLikePreallocatedRing(t *testing.T) {
	for _, capacity := range []int{1, 5, 1024} {
		s := newSeries(capacity)
		ref := &refRing{times: make([]float64, capacity), values: make([]float64, capacity)}
		for i := 0; i <= 3*capacity+2; i++ {
			got, want := s.snapshot("g"), ref.snapshot("g")
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity %d after %d samples: snapshot %+v, want %+v", capacity, i, got, want)
			}
			s.push(float64(i)*15, float64(i*i%97))
			ref.push(float64(i)*15, float64(i*i%97))
		}
		if s.n != capacity || s.dropped != 2*capacity+3 {
			t.Fatalf("capacity %d: ring holds %d samples and dropped %d", capacity, s.n, s.dropped)
		}
	}
}

func TestSamplerGridAlignmentAndPause(t *testing.T) {
	eng := simclock.NewEngine()
	samp := NewSampler(eng, 5, 16)
	depth := 0.0
	samp.Track("depth", func() float64 { return depth })

	// Start mid-grid: first tick must land on the next multiple of 5.
	eng.RunUntil(3)
	samp.Restart()
	depth = 2
	eng.RunUntil(12) // ticks at 5, 10
	samp.StopAll()
	snap := samp.Snapshot()[0]
	if len(snap.Times) != 2 || snap.Times[0] != 5 || snap.Times[1] != 10 {
		t.Fatalf("tick times = %v, want [5 10]", snap.Times)
	}
	if snap.Values[0] != 2 || snap.Values[1] != 2 {
		t.Fatalf("values = %v", snap.Values)
	}

	// While stopped no ticks fire; Restart realigns to the grid.
	eng.RunUntil(23)
	samp.Restart()
	depth = 7
	eng.RunUntil(31)
	samp.StopAll()
	snap = samp.Snapshot()[0]
	if len(snap.Times) != 4 || snap.Times[2] != 25 || snap.Times[3] != 30 {
		t.Fatalf("tick times after pause = %v, want [5 10 25 30]", snap.Times)
	}
	if snap.Values[3] != 7 {
		t.Fatalf("values = %v", snap.Values)
	}
	if samp.Samples() != 4 {
		t.Fatalf("samples = %d, want 4", samp.Samples())
	}
}

// A workload that ends exactly on a grid time cancels the tick due at
// that instant; the next workload's Restart at the same instant must
// schedule that tick, not skip to the following grid point.
func TestSamplerRestartAtCancelledTick(t *testing.T) {
	eng := simclock.NewEngine()
	samp := NewSampler(eng, 5, 16)
	samp.Track("x", func() float64 { return 1 })
	eng.Schedule(10, func() { samp.StopAll(); samp.Restart() })
	samp.Restart()
	eng.RunUntil(16)
	samp.StopAll()
	if got := samp.Snapshot()[0].Times; len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 15 {
		t.Fatalf("tick times = %v, want [5 10 15]", got)
	}
}

func TestSamplerProbesSortedAndOnSample(t *testing.T) {
	eng := simclock.NewEngine()
	samp := NewSampler(eng, 1, 8)
	var order []string
	samp.Track("zz", func() float64 { order = append(order, "zz"); return 0 })
	samp.Track("aa", func() float64 { order = append(order, "aa"); return 0 })
	var ticks []float64
	samp.OnSample(func(tm float64) { ticks = append(ticks, tm) })
	samp.Restart()
	eng.RunUntil(2.5)
	samp.StopAll()
	if len(order) != 4 || order[0] != "aa" || order[1] != "zz" {
		t.Fatalf("probe order = %v, want sorted per tick", order)
	}
	if len(ticks) != 2 || ticks[0] != 1 || ticks[1] != 2 {
		t.Fatalf("onSample ticks = %v", ticks)
	}
	names := samp.Snapshot()
	if len(names) != 2 || names[0].Name != "aa" || names[1].Name != "zz" {
		t.Fatalf("snapshot order = %+v", names)
	}
}

func TestSpark(t *testing.T) {
	if Spark(nil, 10) != "" {
		t.Fatal("empty series should render empty")
	}
	s := Spark([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("spark = %q", s)
	}
	if got := Spark([]float64{5, 5, 5}, 8); got != "▅▅▅" {
		t.Fatalf("flat spark = %q, want mid-height", got)
	}
	// Downsampling halves 8 points into 4 columns of bucket means.
	if got := Spark([]float64{0, 0, 8, 8, 0, 0, 8, 8}, 4); len([]rune(got)) != 4 {
		t.Fatalf("downsampled width = %q", got)
	}
}
