package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixed(t *testing.T) {
	d := Fixed{Bytes: 42}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if d.Sample(rng) != 42 {
			t.Fatal("Fixed varied")
		}
	}
}

func TestLognormalShape(t *testing.T) {
	d := Lognormal{MedianBytes: 1e6, Sigma: 1.5}
	rng := rand.New(rand.NewSource(2))
	var below, n int
	var max float64
	for i := 0; i < 10000; i++ {
		x := d.Sample(rng)
		if x < 1 {
			t.Fatalf("sample below 1 byte: %v", x)
		}
		if x < 1e6 {
			below++
		}
		if x > max {
			max = x
		}
		n++
	}
	// Median property: ~half below exp(mu).
	frac := float64(below) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("median fraction = %v", frac)
	}
	// Heavy tail: the max of 10k samples should exceed 50x the median.
	if max < 50e6 {
		t.Fatalf("no heavy tail: max = %v", max)
	}
}

func TestLognormalTruncation(t *testing.T) {
	d := Lognormal{MedianBytes: 1e6, Sigma: 2.5, MaxBytes: 10e6}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if x := d.Sample(rng); x > 10e6 {
			t.Fatalf("truncation failed: %v", x)
		}
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := NewEmpirical([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewEmpirical([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewEmpirical([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestEmpiricalProportions(t *testing.T) {
	e, err := NewEmpirical([]float64{10, 20}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	counts := map[float64]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[e.Sample(rng)]++
	}
	frac := float64(counts[10]) / float64(n)
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("weight-3 bucket fraction = %v, want ~0.75", frac)
	}
}

func TestPersonalCloudMix(t *testing.T) {
	d := PersonalCloud()
	rng := rand.New(rand.NewSource(5))
	var small, large int
	for i := 0; i < 10000; i++ {
		x := d.Sample(rng)
		if x <= 300e3 {
			small++
		}
		if x >= 30e6 {
			large++
		}
	}
	// Counts dominated by small files, but a real large-file tail exists.
	if small < 5500 || large < 500 {
		t.Fatalf("mix off: small=%d large=%d", small, large)
	}
}

func TestPoissonMeanGap(t *testing.T) {
	p := Poisson{RatePerSec: 0.5}
	rng := rand.New(rand.NewSource(6))
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		g := p.NextGap(rng)
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.0) > 0.1 {
		t.Fatalf("mean gap = %v, want ~2", mean)
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	jobs := Generate(50, Fixed{Bytes: 1e6}, Periodic{GapSec: 10}, rng)
	if len(jobs) != 50 {
		t.Fatalf("len = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.At != float64(i+1)*10 {
			t.Fatalf("job %d at %v", i, j.At)
		}
		if j.Size != 1e6 || j.Name == "" {
			t.Fatalf("job = %+v", j)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := func() []Job {
		return Generate(20, PersonalCloud(), Poisson{RatePerSec: 0.1}, rand.New(rand.NewSource(8)))
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestPropertyArrivalsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs := Generate(30, PersonalCloud(), Poisson{RatePerSec: 1}, rng)
		for i := 1; i < len(jobs); i++ {
			if jobs[i].At < jobs[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlashCrowdValidation(t *testing.T) {
	if _, err := NewFlashCrowd(); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := NewFlashCrowd(Phase{RatePerSec: 0, Seconds: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewFlashCrowd(Phase{RatePerSec: 1}, Phase{RatePerSec: 2}); err == nil {
		t.Error("unbounded non-final phase accepted")
	}
	if _, err := NewFlashCrowd(Phase{RatePerSec: 1, Seconds: 10}, Phase{RatePerSec: 2}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestFlashCrowdPhaseRates(t *testing.T) {
	fc, err := NewFlashCrowd(
		Phase{RatePerSec: 1, Seconds: 100},
		Phase{RatePerSec: 10, Seconds: 100},
		Phase{RatePerSec: 1, Seconds: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	counts := [3]int{}
	t0 := 0.0
	for t0 < 300 {
		t0 += fc.NextGap(rng)
		switch {
		case t0 < 100:
			counts[0]++
		case t0 < 200:
			counts[1]++
		case t0 < 300:
			counts[2]++
		}
	}
	// ~100 arrivals in the calm phases, ~1000 in the burst.
	if counts[0] < 70 || counts[0] > 130 || counts[2] < 70 || counts[2] > 130 {
		t.Fatalf("calm phases off Poisson(1): %v", counts)
	}
	if counts[1] < 900 || counts[1] > 1100 {
		t.Fatalf("burst phase off Poisson(10): %v", counts)
	}
}

func TestFlashCrowdGapsPositiveAndMonotone(t *testing.T) {
	fc, _ := NewFlashCrowd(Phase{RatePerSec: 5, Seconds: 10}, Phase{RatePerSec: 50})
	rng := rand.New(rand.NewSource(10))
	total := 0.0
	for i := 0; i < 1000; i++ {
		g := fc.NextGap(rng)
		if g <= 0 {
			t.Fatalf("gap %d = %v", i, g)
		}
		total += g
	}
	if total < 10 {
		t.Fatalf("1000 arrivals span only %.2fs", total)
	}
}

func TestMergeFleet(t *testing.T) {
	mk := func(prefix string, ats ...float64) []FleetJob {
		out := make([]FleetJob, len(ats))
		for i, at := range ats {
			out[i] = FleetJob{Job: Job{Name: fmt.Sprintf("%s-%d", prefix, i), At: at, Size: 1}, Tenant: prefix}
		}
		return out
	}
	merged := MergeFleet(mk("a", 1, 4, 9), mk("b", 2, 3, 4), mk("c"))
	if len(merged) != 6 {
		t.Fatalf("merged %d jobs, want 6", len(merged))
	}
	last := 0.0
	for i, j := range merged {
		if j.At < last {
			t.Fatalf("merge not time-ordered at %d: %v < %v", i, j.At, last)
		}
		last = j.At
	}
	// Tie at t=4 resolves to the earlier trace (a before b).
	if merged[3].Tenant != "a" || merged[4].Tenant != "b" {
		t.Fatalf("tie-break wrong: %v then %v", merged[3].Tenant, merged[4].Tenant)
	}
}

func TestGenerateFleetPrefixAndDeadline(t *testing.T) {
	jobs, err := GenerateFleet(FleetSpec{
		Jobs: 10, Clients: []string{"a"}, Providers: []string{"P"},
		Prefix: "burst", DeadlineSlack: 30,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Name[:5] != "burst" {
			t.Fatalf("prefix not applied: %q", j.Name)
		}
		if j.Deadline != j.At+30 {
			t.Fatalf("deadline = %v, want At+30 = %v", j.Deadline, j.At+30)
		}
	}
}

func TestGenerateFleetShape(t *testing.T) {
	clients := []string{"ubc-pl", "purdue-pl", "ucla-pl"}
	providers := []string{"GoogleDrive", "Dropbox", "OneDrive"}
	jobs, err := GenerateFleet(FleetSpec{
		Jobs: 600, Clients: clients, Providers: providers,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 600 {
		t.Fatalf("jobs = %d, want 600", len(jobs))
	}
	seenClient, seenProv, seenPrio := map[string]int{}, map[string]int{}, map[int]int{}
	last := 0.0
	for _, j := range jobs {
		seenClient[j.Client]++
		seenProv[j.Provider]++
		seenPrio[j.Priority]++
		if j.Tenant != j.Client {
			t.Fatalf("default tenancy should be per-site: %+v", j)
		}
		if j.Size <= 0 || j.Name == "" {
			t.Fatalf("malformed job: %+v", j)
		}
		if j.At < last {
			t.Fatalf("arrivals not monotone: %v < %v", j.At, last)
		}
		last = j.At
	}
	if len(seenClient) != 3 || len(seenProv) != 3 {
		t.Fatalf("trace misses sites or providers: clients=%v providers=%v", seenClient, seenProv)
	}
	if len(seenPrio) != 3 {
		t.Fatalf("default 3 priority levels, saw %v", seenPrio)
	}
	// Uniform sampling: no cell starves (600 jobs over 3 choices).
	for c, n := range seenClient {
		if n < 100 {
			t.Errorf("client %s got only %d jobs", c, n)
		}
	}
}

func TestGenerateFleetTenantsAndDeterminism(t *testing.T) {
	spec := FleetSpec{
		Jobs: 50, Clients: []string{"a", "b"}, Providers: []string{"P"},
		Tenants: []string{"t1", "t2", "t3"},
		Sizes:   Fixed{Bytes: 1e6},
	}
	gen := func() []FleetJob {
		jobs, err := GenerateFleet(spec, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fleet trace not deterministic")
		}
	}
	tenants := map[string]bool{}
	for _, j := range a {
		tenants[j.Tenant] = true
	}
	for _, want := range spec.Tenants {
		if !tenants[want] {
			t.Errorf("tenant %s never sampled", want)
		}
	}
}

func TestGenerateFleetValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateFleet(FleetSpec{Jobs: 0, Clients: []string{"a"}, Providers: []string{"p"}}, rng); err == nil {
		t.Error("zero jobs accepted")
	}
	if _, err := GenerateFleet(FleetSpec{Jobs: 1, Providers: []string{"p"}}, rng); err == nil {
		t.Error("no clients accepted")
	}
	if _, err := GenerateFleet(FleetSpec{Jobs: 1, Clients: []string{"a"}}, rng); err == nil {
		t.Error("no providers accepted")
	}
	if _, err := GenerateFleet(FleetSpec{Jobs: 1, Clients: []string{"a"}, Providers: []string{"p"}}, nil); err == nil {
		t.Error("nil rng accepted")
	}
}
