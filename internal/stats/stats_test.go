package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); !almost(m, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
	if m := Mean([]float64{7}); !almost(m, 7) {
		t.Fatalf("Mean = %v, want 7", m)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Mean(nil)
}

func TestStdDev(t *testing.T) {
	// Known value: sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Fatalf("StdDev = %v, want ~2.138", got)
	}
	if s := StdDev([]float64{42}); s != 0 {
		t.Fatalf("StdDev of singleton = %v, want 0", s)
	}
	if s := StdDev([]float64{3, 3, 3}); !almost(s, 0) {
		t.Fatalf("StdDev of constants = %v, want 0", s)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if m := Median(xs); !almost(m, 4) {
		t.Fatalf("Median = %v, want 4", m)
	}
	if m := Median([]float64{2, 8, 5}); !almost(m, 5) {
		t.Fatalf("Median = %v, want 5", m)
	}
	// Median must not mutate its input.
	if xs[0] != 5 {
		t.Fatal("Median mutated input")
	}
}

func TestLastN(t *testing.T) {
	runs := []float64{100, 90, 10, 10, 10, 10, 10} // two warm-ups
	s := LastN(runs, 5)
	if !almost(s.Mean, 10) || !almost(s.StdDev, 0) || s.N != 5 {
		t.Fatalf("LastN = %+v", s)
	}
	// Shorter input keeps everything.
	s = LastN([]float64{4, 6}, 5)
	if !almost(s.Mean, 5) || s.N != 2 {
		t.Fatalf("LastN short = %+v", s)
	}
}

func TestRelativeChange(t *testing.T) {
	// Paper Table II, 10 MB: direct 9.46s, via UAlberta 6.47s => -31.6%.
	got := RelativeChange(9.46, 6.47)
	if math.Abs(got-(-31.607)) > 0.01 {
		t.Fatalf("RelativeChange = %v", got)
	}
	if s := FormatRelative(got); s != "-31.61%" {
		t.Fatalf("FormatRelative = %q", s)
	}
	if s := FormatRelative(RelativeChange(9.46, 15.41)); s != "+62.90%" {
		t.Fatalf("FormatRelative = %q", s)
	}
}

func TestIntervalOverlap(t *testing.T) {
	// Paper Table IV example: Dropbox direct 177.89±36.03 overlaps
	// via-UAlberta 237.78±56.1 (213.92 > 181.68).
	direct := Summary{Mean: 177.89, StdDev: 36.03}
	ualb := Summary{Mean: 237.78, StdDev: 56.1}
	if !direct.Overlaps(ualb) {
		t.Fatal("paper's Table IV overlap example must overlap")
	}
	a := Summary{Mean: 10, StdDev: 1}
	b := Summary{Mean: 20, StdDev: 1}
	if a.Overlaps(b) {
		t.Fatal("disjoint intervals reported overlapping")
	}
	if !a.Overlaps(a) {
		t.Fatal("interval must overlap itself")
	}
}

func TestPropertyMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-6 && m <= slices.Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStdDevNonNegativeAndShiftInvariant(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if math.IsNaN(shift) || math.Abs(shift) > 1e6 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		s1 := StdDev(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		s2 := StdDev(shifted)
		return s1 >= 0 && math.Abs(s1-s2) < 1e-6*(1+s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOverlapSymmetric(t *testing.T) {
	f := func(m1, s1, m2, s2 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		a := Summary{Mean: clamp(m1), StdDev: math.Abs(clamp(s1))}
		b := Summary{Mean: clamp(m2), StdDev: math.Abs(clamp(s2))}
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"singleton", []float64{7}, 0.99, 7},
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 1, 3},
		{"median-odd", []float64{5, 1, 9, 3, 7}, 0.5, 5},
		{"median-even", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"interpolated", []float64{1, 2, 3, 4}, 0.25, 1.75},
		{"p90-of-ten", []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.9, 9.1},
		{"unsorted-input", []float64{30, 10, 20}, 0.5, 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Quantile(c.xs, c.q); !almost(got, c.want) {
				t.Fatalf("Quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
			}
		})
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantileMatchesMedian(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Median's (a+b)/2 overflows near MaxFloat64 where the
			// interpolated form does not; stay in a realistic range.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return almost(Quantile(xs, 0.5), Median(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":  func() { Quantile(nil, 0.5) },
		"q-low":  func() { Quantile([]float64{1}, -0.1) },
		"q-high": func() { Quantile([]float64{1}, 1.1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

func TestJainFairness(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"all-equal", []float64{5, 5, 5, 5}, 1},
		{"singleton", []float64{42}, 1},
		{"one-hog", []float64{10, 0, 0, 0}, 0.25},
		{"two-of-four", []float64{1, 1, 0, 0}, 0.5},
		{"known-mix", []float64{1, 2, 3}, 36.0 / 42.0},
		{"all-zero", []float64{0, 0, 0}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := JainFairness(c.xs); !almost(got, c.want) {
				t.Fatalf("JainFairness(%v) = %v, want %v", c.xs, got, c.want)
			}
		})
	}
}

func TestJainFairnessBoundsAndScaleInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				// Squaring near-max floats overflows; the index is for
				// byte counts, not astronomy.
				continue
			}
			xs = append(xs, math.Abs(x))
		}
		if len(xs) == 0 {
			return true
		}
		j := JainFairness(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * 3.5
		}
		return math.Abs(JainFairness(scaled)-j) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
