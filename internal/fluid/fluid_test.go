package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"detournet/internal/simclock"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowUsesFullLink(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0.01)
	var doneAt simclock.Time
	n.StartFlow([]*Link{l}, 1000, FlowOpts{OnComplete: func(f *Flow) { doneAt = f.FinishedAt() }})
	eng.Run()
	if !almost(float64(doneAt), 10, 1e-9) {
		t.Fatalf("1000B over 100B/s finished at %v, want 10", doneAt)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f1 := n.StartFlow([]*Link{l}, 1000, FlowOpts{Label: "a"})
	f2 := n.StartFlow([]*Link{l}, 1000, FlowOpts{Label: "b"})
	if f1.Rate() != 50 || f2.Rate() != 50 {
		t.Fatalf("rates = %v %v, want 50 50", f1.Rate(), f2.Rate())
	}
	eng.Run()
	// Both share until t=20 when both finish together.
	if !almost(float64(f1.FinishedAt()), 20, 1e-6) || !almost(float64(f2.FinishedAt()), 20, 1e-6) {
		t.Fatalf("finish times %v %v, want 20 20", f1.FinishedAt(), f2.FinishedAt())
	}
}

func TestSecondFlowSpeedsUpAfterFirstCompletes(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f1 := n.StartFlow([]*Link{l}, 500, FlowOpts{})  // alone: 5s; shared: rate 50
	f2 := n.StartFlow([]*Link{l}, 1500, FlowOpts{}) // gets full link after f1 done
	eng.Run()
	// Shared at 50 each until f1 finishes at t=10 (500/50); f2 then has
	// 1000 left at rate 100, finishing at t=20.
	if !almost(float64(f1.FinishedAt()), 10, 1e-6) {
		t.Fatalf("f1 finished at %v, want 10", f1.FinishedAt())
	}
	if !almost(float64(f2.FinishedAt()), 20, 1e-6) {
		t.Fatalf("f2 finished at %v, want 20", f2.FinishedAt())
	}
}

func TestLateArrivalSlowsExistingFlow(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f1 := n.StartFlow([]*Link{l}, 1000, FlowOpts{})
	eng.Advance(5) // f1 delivered 500 at full rate
	f2 := n.StartFlow([]*Link{l}, 250, FlowOpts{})
	eng.Run()
	// From t=5 both run at 50. f2 finishes at t=10; f1 has 250 left,
	// finishes at 10+250/100 = 12.5.
	if !almost(float64(f2.FinishedAt()), 10, 1e-6) {
		t.Fatalf("f2 finished at %v, want 10", f2.FinishedAt())
	}
	if !almost(float64(f1.FinishedAt()), 12.5, 1e-6) {
		t.Fatalf("f1 finished at %v, want 12.5", f1.FinishedAt())
	}
}

func TestRateCapBinds(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f1 := n.StartFlow([]*Link{l}, 100, FlowOpts{RateCap: 10})
	f2 := n.StartFlow([]*Link{l}, 900, FlowOpts{})
	if !almost(f1.Rate(), 10, 1e-9) {
		t.Fatalf("capped flow rate = %v, want 10", f1.Rate())
	}
	// Max-min: the capped flow's unused share goes to the other flow.
	if !almost(f2.Rate(), 90, 1e-9) {
		t.Fatalf("uncapped flow rate = %v, want 90", f2.Rate())
	}
	eng.Run()
	if !almost(float64(f1.FinishedAt()), 10, 1e-6) || !almost(float64(f2.FinishedAt()), 10, 1e-6) {
		t.Fatalf("finish times %v %v", f1.FinishedAt(), f2.FinishedAt())
	}
}

func TestSetFlowCapMidTransfer(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f := n.StartFlow([]*Link{l}, 1000, FlowOpts{RateCap: 10})
	eng.Advance(10) // 100 bytes done
	n.SetFlowCap(f, 0)
	eng.Run()
	// Remaining 900 at 100 B/s: finishes at 19.
	if !almost(float64(f.FinishedAt()), 19, 1e-6) {
		t.Fatalf("finished at %v, want 19", f.FinishedAt())
	}
}

func TestMultiLinkPathBottleneck(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	a := n.AddLink("fast", 1000, 0.001)
	b := n.AddLink("slow", 10, 0.020)
	f := n.StartFlow([]*Link{a, b}, 100, FlowOpts{})
	if !almost(f.Rate(), 10, 1e-9) {
		t.Fatalf("rate = %v, want 10 (bottleneck)", f.Rate())
	}
	if d := PathDelay(f.Path()); !almost(d, 0.021, 1e-12) {
		t.Fatalf("PathDelay = %v", d)
	}
	eng.Run()
	if !almost(float64(f.FinishedAt()), 10, 1e-6) {
		t.Fatalf("finished at %v, want 10", f.FinishedAt())
	}
}

func TestCrossTrafficReducesRate(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f := n.StartFlow([]*Link{l}, 1000, FlowOpts{})
	eng.Advance(5) // 500 delivered
	n.SetLinkLoad(l, 0.5)
	eng.Run()
	// Remaining 500 at 50 B/s: finish at 15.
	if !almost(float64(f.FinishedAt()), 15, 1e-6) {
		t.Fatalf("finished at %v, want 15", f.FinishedAt())
	}
}

func TestLinkLoadClamped(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	n.SetLinkLoad(l, 2.0)
	if l.Load() > 0.99 {
		t.Fatalf("load = %v, want clamped <= 0.98", l.Load())
	}
	if l.Available() <= 0 {
		t.Fatal("available must stay positive under full load")
	}
	n.SetLinkLoad(l, -1)
	if l.Load() != 0 {
		t.Fatalf("negative load not clamped: %v", l.Load())
	}
}

func TestCancelFlow(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	called := false
	f1 := n.StartFlow([]*Link{l}, 1000, FlowOpts{OnComplete: func(*Flow) { called = true }})
	f2 := n.StartFlow([]*Link{l}, 500, FlowOpts{})
	eng.Advance(2)
	if !n.CancelFlow(f1) {
		t.Fatal("CancelFlow reported false")
	}
	if n.CancelFlow(f1) {
		t.Fatal("double cancel reported true")
	}
	eng.Run()
	if called {
		t.Fatal("cancelled flow ran OnComplete")
	}
	if f1.State() != FlowCancelled {
		t.Fatalf("state = %v", f1.State())
	}
	// f2: 100 bytes delivered by t=2 (shared), then full rate:
	// 400 remaining at 100 B/s => finish at 6.
	if !almost(float64(f2.FinishedAt()), 6, 1e-6) {
		t.Fatalf("f2 finished at %v, want 6", f2.FinishedAt())
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d", n.ActiveFlows())
	}
}

func TestRemainingAccounting(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f := n.StartFlow([]*Link{l}, 1000, FlowOpts{})
	eng.Advance(3)
	if r := n.Remaining(f); !almost(r, 700, 1e-6) {
		t.Fatalf("Remaining = %v, want 700", r)
	}
	eng.Run()
	if r := n.Remaining(f); r != 0 {
		t.Fatalf("Remaining after done = %v", r)
	}
}

func TestParkingLotFairness(t *testing.T) {
	// Classic parking-lot: long flow crosses links A and B; two short
	// flows cross A and B respectively. Max-min: every flow gets C/2.
	eng := simclock.NewEngine()
	n := New(eng)
	a := n.AddLink("a", 100, 0)
	b := n.AddLink("b", 100, 0)
	long := n.StartFlow([]*Link{a, b}, 1e6, FlowOpts{})
	s1 := n.StartFlow([]*Link{a}, 1e6, FlowOpts{})
	s2 := n.StartFlow([]*Link{b}, 1e6, FlowOpts{})
	for _, f := range []*Flow{long, s1, s2} {
		if !almost(f.Rate(), 50, 1e-9) {
			t.Fatalf("parking-lot rate = %v, want 50", f.Rate())
		}
	}
}

func TestUnevenBottlenecksMaxMin(t *testing.T) {
	// Flow1 on a 10-link alone would get 10; flow2 shares a 100-link with
	// flow3. Max-min: f1=10, f2=f3=50.
	eng := simclock.NewEngine()
	n := New(eng)
	small := n.AddLink("small", 10, 0)
	big := n.AddLink("big", 100, 0)
	f1 := n.StartFlow([]*Link{small, big}, 1e6, FlowOpts{})
	f2 := n.StartFlow([]*Link{big}, 1e6, FlowOpts{})
	if !almost(f1.Rate(), 10, 1e-9) {
		t.Fatalf("f1 rate = %v, want 10", f1.Rate())
	}
	if !almost(f2.Rate(), 90, 1e-9) {
		t.Fatalf("f2 rate = %v, want 90 (max-min residual)", f2.Rate())
	}
}

func TestBottleneckCapacity(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	a := n.AddLink("a", 100, 0)
	b := n.AddLink("b", 30, 0)
	if c := BottleneckCapacity([]*Link{a, b}); !almost(c, 30, 1e-9) {
		t.Fatalf("BottleneckCapacity = %v", c)
	}
	n.SetLinkLoad(b, 0.5)
	if c := BottleneckCapacity([]*Link{a, b}); !almost(c, 15, 1e-9) {
		t.Fatalf("BottleneckCapacity under load = %v", c)
	}
	if c := BottleneckCapacity(nil); c != 0 {
		t.Fatalf("empty path capacity = %v", c)
	}
}

func TestStartFlowValidation(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	for _, fn := range []func(){
		func() { n.StartFlow(nil, 10, FlowOpts{}) },
		func() { n.StartFlow([]*Link{l}, 0, FlowOpts{}) },
		func() { n.StartFlow([]*Link{l}, math.NaN(), FlowOpts{}) },
		func() { n.AddLink("bad", 0, 0) },
		func() { n.AddLink("bad", 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// A NaN rate cap panics, as a NaN load or capacity does, and leaves the
// network as it was: a NaN cap would never let its flow freeze at it.
func TestNaNRateCapPanics(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f := n.StartFlow([]*Link{l}, 1000, FlowOpts{RateCap: 10})
	for name, fn := range map[string]func(){
		"StartFlow":  func() { n.StartFlow([]*Link{l}, 1000, FlowOpts{RateCap: math.NaN()}) },
		"SetFlowCap": func() { n.SetFlowCap(f, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a NaN cap did not panic", name)
				}
			}()
			fn()
		}()
	}
	if n.ActiveFlows() != 1 || l.NumFlows() != 1 || f.Cap() != 10 || f.Rate() != 10 {
		t.Fatalf("after the panics: %d flows, %d on the link, cap %v, rate %v; want 1, 1, 10, 10",
			n.ActiveFlows(), l.NumFlows(), f.Cap(), f.Rate())
	}
}

// Link.FlowCap is read when a flow starts and when SetFlowCap changes its
// cap, not at every reallocation: a write binds only the flows that start
// or change cap after it.
func TestFlowCapReadAtStartAndCapChange(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("fw", 100, 0)
	old := n.StartFlow([]*Link{l}, 1e9, FlowOpts{})
	l.FlowCap = 10
	n.SetLinkLoad(l, 0.2) // reallocates; old keeps its uncapped ceiling
	young := n.StartFlow([]*Link{l}, 1e9, FlowOpts{})
	rates := func(want ...float64) {
		t.Helper()
		if old.Rate() != want[0] || young.Rate() != want[1] {
			t.Fatalf("rates %v %v, want %v", old.Rate(), young.Rate(), want)
		}
	}
	rates(70, 10)
	n.SetFlowCap(old, 50) // reads FlowCap: 10 binds
	rates(10, 10)
	l.FlowCap = 0
	n.SetFlowCap(old, 50) // the same cap: nothing is read
	rates(10, 10)
	n.SetFlowCap(young, 60) // reads the lifted FlowCap
	rates(10, 60)
}

// Property: total allocated rate on any link never exceeds its available
// capacity, and every flow eventually completes, delivering exactly its
// byte count (work conservation under random arrivals).
func TestPropertyConservationAndCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := simclock.NewEngine()
		n := New(eng)
		links := make([]*Link, 5)
		for i := range links {
			links[i] = n.AddLink("l", 50+float64(rng.Intn(200)), 0.001)
		}
		type rec struct {
			bytes float64
			f     *Flow
		}
		var recs []*rec
		for i := 0; i < 15; i++ {
			i := i
			eng.Schedule(simclock.Time(rng.Float64()*20), func() {
				// Random sub-path of 1-3 links.
				k := 1 + rng.Intn(3)
				perm := rng.Perm(len(links))[:k]
				path := make([]*Link, k)
				for j, p := range perm {
					path[j] = links[p]
				}
				r := &rec{bytes: 100 + float64(rng.Intn(5000))}
				opts := FlowOpts{Label: "f"}
				if i%3 == 0 {
					opts.RateCap = 20 + rng.Float64()*100
				}
				r.f = n.StartFlow(path, r.bytes, opts)
				recs = append(recs, r)

				// Capacity invariant check at every arrival, on the
				// settled allocation.
				for _, l := range links {
					var sum float64
					for _, fl := range l.flows {
						sum += fl.Rate()
					}
					if sum > l.Available()*(1+1e-6) {
						panic("link over-allocated")
					}
				}
				// Cap invariant.
				for _, fl := range n.flows {
					if fl.Rate() > fl.cap*(1+1e-9) {
						panic("flow over its cap")
					}
				}
			})
		}
		eng.Run()
		for _, r := range recs {
			if r.f.State() != FlowDone {
				return false
			}
			// Duration must be at least bytes / bottleneck capacity.
			dur := float64(r.f.FinishedAt() - r.f.StartedAt())
			minDur := r.bytes / BottleneckCapacity(r.f.Path())
			if dur < minDur*(1-1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with k identical flows on one link, each gets C/k and all
// finish simultaneously.
func TestPropertyEqualSharing(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw%10) + 1
		eng := simclock.NewEngine()
		n := New(eng)
		l := n.AddLink("l", 100, 0)
		flows := make([]*Flow, k)
		for i := range flows {
			flows[i] = n.StartFlow([]*Link{l}, 1000, FlowOpts{})
		}
		for _, fl := range flows {
			if !almost(fl.Rate(), 100/float64(k), 1e-6) {
				return false
			}
		}
		eng.Run()
		want := 1000 * float64(k) / 100
		for _, fl := range flows {
			if !almost(float64(fl.FinishedAt()), want, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPerFlowCapFirewall(t *testing.T) {
	// A 100 B/s link with a 10 B/s per-flow cap: one flow gets 10, five
	// flows get 10 each (the firewall, not the wire, binds).
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("fw", 100, 0)
	l.FlowCap = 10
	var flows []*Flow
	for i := 0; i < 5; i++ {
		flows = append(flows, n.StartFlow([]*Link{l}, 1000, FlowOpts{}))
	}
	for i, f := range flows {
		if !almost(f.Rate(), 10, 1e-9) {
			t.Fatalf("flow %d rate = %v, want 10 (per-flow cap)", i, f.Rate())
		}
	}
	eng.Run()
	for _, f := range flows {
		if !almost(float64(f.FinishedAt()), 100, 1e-6) {
			t.Fatalf("capped flow finished at %v, want 100", f.FinishedAt())
		}
	}
}

func TestPerFlowCapInteractsWithExternalCap(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("fw", 100, 0)
	l.FlowCap = 10
	// External cap tighter than the firewall: external wins.
	f1 := n.StartFlow([]*Link{l}, 100, FlowOpts{RateCap: 4})
	if !almost(f1.Rate(), 4, 1e-9) {
		t.Fatalf("rate = %v, want 4", f1.Rate())
	}
	// External cap looser: firewall wins.
	f2 := n.StartFlow([]*Link{l}, 100, FlowOpts{RateCap: 50})
	if !almost(f2.Rate(), 10, 1e-9) {
		t.Fatalf("rate = %v, want 10", f2.Rate())
	}
	eng.Run()
}

func TestPerFlowCapOnlyOnFirewalledPath(t *testing.T) {
	// Two parallel paths: one firewalled, one clean. The clean path's
	// flow runs at link speed.
	eng := simclock.NewEngine()
	n := New(eng)
	fw := n.AddLink("fw", 100, 0)
	fw.FlowCap = 5
	clean := n.AddLink("clean", 100, 0)
	f1 := n.StartFlow([]*Link{fw}, 100, FlowOpts{})
	f2 := n.StartFlow([]*Link{clean}, 100, FlowOpts{})
	if !almost(f1.Rate(), 5, 1e-9) || !almost(f2.Rate(), 100, 1e-9) {
		t.Fatalf("rates = %v %v, want 5 100", f1.Rate(), f2.Rate())
	}
	eng.Run()
}

func BenchmarkMaxMinReallocation(b *testing.B) {
	for _, flows := range []int{50, 1000, 10000} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			eng := simclock.NewEngine()
			n := New(eng)
			links := make([]*Link, 20)
			for i := range links {
				links[i] = n.AddLink("l", 1e9, 0.001)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < flows; i++ {
				k := 1 + rng.Intn(3)
				path := make([]*Link, k)
				for j := 0; j < k; j++ {
					path[j] = links[rng.Intn(len(links))]
				}
				// Enormous flows so none complete during the benchmark.
				n.attach(dedupLinks(path), 1e18, FlowOpts{})
			}
			n.touch()
			n.settle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.SetLinkLoad(links[i%len(links)], float64(i%50)/100)
				n.settle()
			}
		})
	}
}

// BenchmarkLoadBurst is the cross-traffic tick on a 300-flow network:
// one event sets the load of 4 links, and the step that follows settles
// it. One op is that event and its step.
func BenchmarkLoadBurst(b *testing.B) {
	eng := simclock.NewEngine()
	n := New(eng)
	links := make([]*Link, 12)
	for i := range links {
		links[i] = n.AddLink("l", 1e6, 0)
		if i%4 == 0 {
			links[i].FlowCap = 2e4
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		opts := FlowOpts{}
		if i%3 == 0 {
			opts.RateCap = 1e3 + rng.Float64()*1e4
		}
		// Enormous flows so none complete during the benchmark.
		n.StartFlow([]*Link{links[rng.Intn(len(links))], links[rng.Intn(len(links))]}, 1e18, opts)
	}
	ticks := 0
	var tick func()
	tick = func() {
		for k := 0; k < 4; k++ {
			n.SetLinkLoad(links[k], 0.1*float64((ticks+k)%7))
		}
		ticks++
		eng.Post(eng.Now()+1, tick)
	}
	eng.Post(1, tick)
	eng.Step() // the starts settle, the first tick runs
	before := n.Reallocations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Reallocations-before)/float64(b.N), "reallocs/op")
}

func dedupLinks(in []*Link) []*Link {
	seen := map[*Link]bool{}
	var out []*Link
	for _, l := range in {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// TestPropertyMaxMinCharacterization verifies the defining property of a
// max-min fair allocation: every flow is either at its (effective) rate
// cap, or crosses at least one saturated link on which no other flow
// receives a strictly higher rate. This characterization is necessary
// and sufficient, so it pins the allocator's correctness without
// reimplementing it.
func TestPropertyMaxMinCharacterization(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := simclock.NewEngine()
		n := New(eng)
		links := make([]*Link, 2+rng.Intn(6))
		for i := range links {
			links[i] = n.AddLink("l", 10+float64(rng.Intn(190)), 0)
			if rng.Intn(4) == 0 {
				links[i].FlowCap = 5 + float64(rng.Intn(50))
			}
		}
		var flows []*Flow
		for i := 0; i < 1+rng.Intn(10); i++ {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(links))
			if k > len(perm) {
				k = len(perm)
			}
			path := make([]*Link, k)
			for j := 0; j < k; j++ {
				path[j] = links[perm[j]]
			}
			opts := FlowOpts{}
			if rng.Intn(3) == 0 {
				opts.RateCap = 1 + rng.Float64()*80
			}
			flows = append(flows, n.StartFlow(path, 1e12, opts))
		}
		effCap := func(f *Flow) float64 {
			c := f.cap
			for _, l := range f.path {
				if l.FlowCap > 0 && l.FlowCap < c {
					c = l.FlowCap
				}
			}
			return c
		}
		for fi, f := range flows {
			if f.Rate() >= effCap(f)*(1-1e-9) {
				continue // cap-limited: fine
			}
			bottlenecked := false
			for _, l := range f.path {
				var used, maxRate float64
				for _, g := range l.flows {
					used += g.Rate()
					if g.Rate() > maxRate {
						maxRate = g.Rate()
					}
				}
				saturated := used >= l.Available()*(1-1e-6)
				if saturated && f.Rate() >= maxRate*(1-1e-6) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				t.Fatalf("seed %d: flow %d (rate %v, cap %v) is neither cap-limited nor bottlenecked",
					seed, fi, f.Rate(), effCap(f))
			}
		}
		// Cleanup so the engine does not run forever.
		for _, f := range flows {
			n.CancelFlow(f)
		}
	}
}

// referenceMaxMin is the textbook progressive-filling loop the allocator
// must reproduce bit for bit: every round it scans every link for the
// smallest headroom per unfrozen flow and every unfrozen flow for its
// cap slack, raises every unfrozen rate by that delta, then freezes the
// flows on saturated links and at their caps. It reads the network's
// links and flows and returns the rates without touching them.
func referenceMaxMin(links []*Link, flows []*Flow) map[*Flow]float64 {
	rate := make(map[*Flow]float64, len(flows))
	frozen := make(map[*Flow]bool, len(flows))
	if len(flows) == 0 {
		return rate
	}
	for _, f := range flows {
		rate[f] = 0
		frozen[f] = false
	}
	effCap := func(f *Flow) float64 {
		c := f.cap
		for _, l := range f.path {
			if l.FlowCap > 0 && l.FlowCap < c {
				c = l.FlowCap
			}
		}
		return c
	}
	caps := make(map[*Flow]float64, len(flows))
	for _, f := range flows {
		caps[f] = effCap(f)
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, l := range links {
			cnt := 0
			used := 0.0
			for _, f := range l.flows {
				used += rate[f]
				if !frozen[f] {
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			d := (l.Available() - used) / float64(cnt)
			if d < delta {
				delta = d
			}
		}
		for _, f := range flows {
			if frozen[f] {
				continue
			}
			if slack := caps[f] - rate[f]; slack < delta {
				delta = slack
			}
		}
		if delta < 0 {
			delta = 0
		}
		if math.IsInf(delta, 1) {
			panic("fluid: unbounded allocation")
		}
		for _, f := range flows {
			if !frozen[f] {
				rate[f] += delta
			}
		}
		for _, l := range links {
			used := 0.0
			hasUnfrozen := false
			for _, f := range l.flows {
				used += rate[f]
				if !frozen[f] {
					hasUnfrozen = true
				}
			}
			if !hasUnfrozen {
				continue
			}
			if l.Available()-used <= 1e-9*math.Max(1, l.Available()) {
				for _, f := range l.flows {
					if !frozen[f] {
						frozen[f] = true
						unfrozen--
					}
				}
			}
		}
		for _, f := range flows {
			c := caps[f]
			if !frozen[f] && !math.IsInf(c, 1) && c-rate[f] <= 1e-12*math.Max(1, c) {
				frozen[f] = true
				unfrozen--
			}
		}
		if delta == 0 {
			for _, f := range flows {
				if !frozen[f] {
					frozen[f] = true
					unfrozen--
				}
			}
		}
	}
	return rate
}

// refNet drives a Network the way the textbook simulator does: every
// mutation reallocates at once, with rates from referenceMaxMin, and
// each completion event is cancelled and a new one scheduled. Its
// mutators shadow Network's.
type refNet struct {
	*Network
	events map[*Flow]*simclock.Event
}

func (r *refNet) StartFlow(path []*Link, bytes float64, opts FlowOpts) *Flow {
	f := r.attach(path, bytes, opts)
	r.reallocate()
	return f
}

func (r *refNet) SetFlowCap(f *Flow, cap float64) {
	if f.state != FlowActive {
		return
	}
	if cap <= 0 {
		cap = Inf
	}
	if cap != f.cap {
		f.cap = cap
		r.reallocate()
	}
}

func (r *refNet) SetLinkLoad(l *Link, fraction float64) {
	fraction = math.Max(0, math.Min(maxLoad, fraction))
	if fraction != l.load {
		l.load = fraction
		if len(l.flows) > 0 {
			r.reallocate()
		}
	}
}

func (r *refNet) SetLinkCapacity(l *Link, capacity float64) {
	if capacity != l.Capacity {
		l.Capacity = capacity
		if len(l.flows) > 0 {
			r.reallocate()
		}
	}
}

func (r *refNet) CancelFlow(f *Flow) bool { return r.end(f, FlowCancelled, nil) }

func (r *refNet) KillFlow(f *Flow) bool { return r.end(f, FlowCancelled, f.onAbort) }

func (r *refNet) end(f *Flow, state FlowState, then func(*Flow)) bool {
	if f.state != FlowActive {
		return false
	}
	f.settleProgress(r.eng.Now())
	if state == FlowDone {
		f.remaining = 0
	}
	f.state = state
	f.finishedAt = r.eng.Now()
	r.eng.Cancel(r.events[f])
	delete(r.events, f)
	r.detach(f)
	r.reallocate()
	if then != nil {
		then(f)
	}
	return true
}

func (r *refNet) reallocate() {
	r.Reallocations++
	now := r.eng.Now()
	for _, f := range r.flows {
		f.settleProgress(now)
	}
	for f, rate := range referenceMaxMin(r.links, r.flows) {
		f.rate = rate
	}
	for _, f := range r.flows {
		var at simclock.Time
		if f.rate <= 0 {
			at = simclock.Infinity
		} else {
			at = now + simclock.Time(f.remaining/f.rate)
		}
		r.eng.Cancel(r.events[f])
		delete(r.events, f)
		if at != simclock.Infinity {
			r.events[f] = r.eng.Schedule(at, func() { r.end(f, FlowDone, f.onComplete) })
		}
	}
}

// flowNet is the mutator surface the differential script drives.
type flowNet interface {
	StartFlow(path []*Link, bytes float64, opts FlowOpts) *Flow
	SetFlowCap(f *Flow, cap float64)
	SetLinkLoad(l *Link, fraction float64)
	SetLinkCapacity(l *Link, capacity float64)
	CancelFlow(f *Flow) bool
	KillFlow(f *Flow) bool
}

// diffOp is one scripted mutation. Flow targets are indices into the
// flows started so far, so both runs pick the same flow.
type diffOp struct {
	kind   int // 0 start, 1 cap, 2 load, 3 capacity, 4 cancel, 5 kill, 6 cancel all, 7 edge capacity (wideScript)
	path   []int
	bytes  float64
	value  float64
	target int
	chain  bool // a start whose completion starts a flow over its path
	// later, in a burst, schedules the mutation delay after the burst's
	// instant, behind the numbers the mutations before it claimed.
	later bool
	delay simclock.Time
}

// diffEvent is one scripted event: its mutations run in order at one
// instant, inside one engine event.
type diffEvent struct {
	at  simclock.Time
	ops []diffOp
}

// diffScript draws a random network and event script: links with
// FlowCaps, paths that repeat a link, uncapped flows, loads past the
// 0.98 clamp, identical flows started by separate events at one instant
// (they tie), bursts of two to four mutations in one event, some of
// which schedule their mutation for later (at the same instant too), and
// starts whose completion callback starts the next flow, as transport's
// do.
func diffScript(seed int64, wide bool) (caps, flowCaps []float64, events []diffEvent) {
	rng := rand.New(rand.NewSource(seed))
	if wide {
		return wideScript(rng)
	}
	nl := 2 + rng.Intn(6)
	for i := 0; i < nl; i++ {
		caps = append(caps, float64(10+rng.Intn(4)*30))
		fc := 0.0
		if rng.Intn(4) == 0 {
			fc = float64(5 + rng.Intn(3)*10)
		}
		flowCaps = append(flowCaps, fc)
	}
	draw := func() diffOp {
		op := diffOp{kind: rng.Intn(6), target: rng.Intn(64)}
		if rng.Intn(2) == 0 {
			op.kind = 0 // starts dominate
		}
		switch op.kind {
		case 0:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				op.path = append(op.path, rng.Intn(nl)) // repeats allowed
			}
			op.bytes = float64(50 + rng.Intn(4)*100)
			if rng.Intn(2) == 0 {
				op.value = float64(1 + rng.Intn(40))
			}
			op.chain = rng.Intn(4) == 0
		case 1:
			op.value = float64(rng.Intn(50)) // 0 lifts the cap
		case 2:
			op.value = []float64{-0.5, 0, 0.3, 0.5, 0.97, 0.98, 1.5}[rng.Intn(7)]
		case 3:
			op.value = float64(5 + rng.Intn(6)*25)
		}
		return op
	}
	for i := 0; i < 40; i++ {
		at := simclock.Time(rng.Intn(60)) / 2
		if rng.Intn(4) == 0 {
			ev := diffEvent{at: at}
			for k := 2 + rng.Intn(3); k > 0; k-- {
				op := draw()
				if rng.Intn(3) == 0 {
					op.later, op.delay = true, simclock.Time(rng.Intn(3))/2
				}
				ev.ops = append(ev.ops, op)
			}
			events = append(events, ev)
			continue
		}
		op := draw()
		reps := 1
		if op.kind == 0 {
			reps += rng.Intn(3) // identical flows, same instant
		}
		for ; reps > 0; reps-- {
			events = append(events, diffEvent{at: at, ops: []diffOp{op}})
		}
	}
	return caps, flowCaps, events
}

// wideScript draws a script at the scale where a link's rate sum rounds:
// non-integer capacities log-uniform over 1e-3–1e12 B/s, 200–1,000 flows
// started at once on one shared link (link 0), caps and FlowCaps
// straddling its fair share (two within the cap tolerance of it), loads
// at the 0.98 clamp, and 25 later events, some of them bursts. Flows
// carry hundreds of fair-share seconds, so few complete before the last
// event cancels them all. Two structures aim at the allocator's bounds:
//   - link 1 carries every flow of link 0 plus the script's first flow,
//     which crosses only link 1; op kind 7 moves link 1's capacity to
//     within an ulp of its saturation test (edgeCapacity);
//   - links 2 and 3 mirror each other: equal capacity and load, flows in
//     pairs with the same caps, started in a different order on each, so
//     their rate sums differ only in rounding.
func wideScript(rng *rand.Rand) (caps, flowCaps []float64, events []diffEvent) {
	logUniform := func() float64 { return math.Pow(10, -3+15*rng.Float64()) }
	nl := 5 + rng.Intn(2)
	nf := 200 + rng.Intn(801)
	nm := nf / 4 // mirrored pairs
	caps = []float64{logUniform()}
	fair := caps[0] / float64(nf)
	mirror := fair * float64(nm) * (0.5 + 0.5*rng.Float64())
	caps = append(caps, caps[0]*(1+rng.Float64()), mirror, mirror)
	for len(caps) < nl {
		caps = append(caps, logUniform())
	}
	flowCaps = make([]float64, nl)
	for i := 4; i < nl; i++ {
		if rng.Intn(3) == 0 {
			flowCaps[i] = fair * (0.5 + rng.Float64())
		}
	}
	levels := []float64{fair * (1 - 1e-12*rng.Float64()), fair * (1 + 1e-12*rng.Float64())}
	for len(levels) < 12 {
		levels = append(levels, fair*(0.5+1.5*rng.Float64()))
	}
	rateCap := func() float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return levels[rng.Intn(len(levels))]
	}
	start := func(rateCap float64, path ...int) diffOp {
		op := diffOp{path: path, value: rateCap, chain: rng.Intn(8) == 0}
		op.bytes = fair * (20 + 400*rng.Float64())
		return op
	}
	shared := func() diffOp {
		path := []int{0, 1}
		for k := rng.Intn(3); k > 0; k-- {
			path = append(path, 4+rng.Intn(nl-4)) // repeats allowed
		}
		return start(rateCap(), path...)
	}
	burst := diffEvent{ops: []diffOp{{path: []int{1}, bytes: caps[1] * 1e6}}}
	mirrorCaps := make([]float64, nm)
	for i := range mirrorCaps {
		mirrorCaps[i] = rateCap()
	}
	order := rng.Perm(nm)
	for i := 0; i < nm; i++ {
		burst.ops = append(burst.ops, start(mirrorCaps[i], 0, 1, 2), start(mirrorCaps[order[i]], 0, 1, 3))
	}
	for len(burst.ops) < nf {
		burst.ops = append(burst.ops, shared())
	}
	events = append(events, burst)
	// draw returns one scripted change, applied to both mirrors when it
	// sets a mirror's load or capacity.
	draw := func() []diffOp {
		op := diffOp{kind: rng.Intn(8), target: rng.Intn(1 << 20)}
		if op.kind == 6 {
			op.kind = 7 // only the last event cancels all
		}
		switch op.kind {
		case 0:
			return []diffOp{shared()}
		case 1:
			op.value = rateCap() // 0 lifts the cap
		case 2:
			op.value = []float64{0.97, 0.98, 0.98 - 1e-12, 1.5, 0.98 * rng.Float64()}[rng.Intn(5)]
		case 3:
			op.value = caps[op.target%nl] * (0.5 + rng.Float64())
		case 7:
			op.value = float64(rng.Intn(2)) // 1 saturates link 1
		}
		if t := op.target % nl; (op.kind == 2 || op.kind == 3) && (t == 2 || t == 3) {
			twin := op
			twin.target += 5 - 2*t
			return []diffOp{op, twin}
		}
		return []diffOp{op}
	}
	for i := 0; i < 25; i++ {
		ev := diffEvent{at: simclock.Time(30 * rng.Float64())}
		for k := 1 + rng.Intn(2)*rng.Intn(4); k > 0; k-- {
			later, delay := rng.Intn(4) == 0, simclock.Time(rng.Float64())
			for _, op := range draw() {
				op.later, op.delay = later, delay
				ev.ops = append(ev.ops, op)
			}
		}
		events = append(events, ev)
	}
	events = append(events, diffEvent{at: 30, ops: []diffOp{{kind: 6}}})
	return caps, flowCaps, events
}

// edgeCapacity returns a capacity for twin, which carries every flow of
// shared plus x, at which twin's saturation test lands within one ulp of
// its tolerance in the round the last flow of shared freezes; twin's
// headroom stays above shared's before that round. In that round the
// flows of shared have their settled rates, the top one the round's
// level, and x is still rising at that level. The capacity saturates
// twin when saturate is set and leaves it one ulp short otherwise.
// It reports false when x is gone or the search does not close.
func edgeCapacity(shared, twin *Link, x *Flow, saturate bool) (float64, bool) {
	if x.State() != FlowActive || len(shared.flows) == 0 {
		return 0, false
	}
	x.Rate() // settles
	level := 0.0
	for _, f := range shared.flows {
		level = max(level, f.rate)
	}
	used := 0.0
	for _, f := range twin.flows {
		if f == x {
			used += level
		} else {
			used += f.rate
		}
	}
	saturated := func(c float64) bool {
		avail := c * (1 - twin.load)
		return avail-used <= 1e-9*max(1, avail)
	}
	c := (used + 1e-9*max(1, used)) / (1 - twin.load)
	for i := 0; !saturated(c); i++ {
		if i == 64 {
			return 0, false
		}
		c = math.Nextafter(c, 0)
	}
	for i := 0; saturated(math.Nextafter(c, Inf)); i++ {
		if i == 64 {
			return 0, false
		}
		c = math.Nextafter(c, Inf)
	}
	if !saturate {
		c = math.Nextafter(c, Inf)
	}
	return c, true
}

// runDiffScript plays the script on net (built over n) and returns the
// log of completions and aborts (label, state and the finish time bits)
// ending in the number of events run, and the number of reallocations.
// When check is set it settles the network after every event, as the
// next Step would, and asserts that each active flow's rate equals
// referenceMaxMin's bit for bit and that the busy set holds exactly the
// links that carry flows, each once at its recorded index.
func runDiffScript(t *testing.T, seed int64, wide bool, n *Network, net flowNet, check bool) ([]string, uint64) {
	t.Helper()
	caps, flowCaps, events := diffScript(seed, wide)
	links := make([]*Link, len(caps))
	for i := range caps {
		links[i] = n.AddLink(fmt.Sprint("l", i), caps[i], 0)
		links[i].FlowCap = flowCaps[i]
	}
	var log []string
	verify := func() {
		n.eng.Pending() // runs the settling hook
		want := referenceMaxMin(n.links, n.flows)
		for _, f := range n.flows {
			if math.Float64bits(f.rate) != math.Float64bits(want[f]) {
				t.Fatalf("seed %d (wide %v) after event %d at t=%v: flow %s rate %v, reference %v",
					seed, wide, n.eng.Processed(), n.eng.Now(), f.Label, f.rate, want[f])
			}
		}
		busy := 0
		for _, l := range n.links {
			if len(l.flows) == 0 {
				continue
			}
			busy++
			if l.busyIdx >= len(n.busy) || n.busy[l.busyIdx] != l {
				t.Fatalf("seed %d after event %d: link %s carries %d flows but is not in the busy set at its index %d",
					seed, n.eng.Processed(), l.Name, len(l.flows), l.busyIdx)
			}
		}
		if busy != len(n.busy) {
			t.Fatalf("seed %d after event %d: busy set holds %d links, %d carry flows", seed, n.eng.Processed(), len(n.busy), busy)
		}
	}
	record := func(f *Flow) {
		log = append(log, fmt.Sprintf("%s %d %x", f.Label, f.state, math.Float64bits(float64(f.finishedAt))))
	}
	var started []*Flow
	var start func(label string, path []*Link, bytes, rateCap float64, chain bool)
	start = func(label string, path []*Link, bytes, rateCap float64, chain bool) {
		started = append(started, net.StartFlow(path, bytes, FlowOpts{
			Label: label, RateCap: rateCap, OnAbort: record,
			OnComplete: func(f *Flow) {
				record(f)
				if chain {
					start(label+"+", path, bytes, rateCap, false)
				}
			},
		}))
	}
	apply := func(label string, op diffOp) {
		var target *Flow
		if len(started) > 0 {
			target = started[op.target%len(started)]
		}
		l := links[op.target%len(links)]
		switch {
		case op.kind == 0:
			path := make([]*Link, len(op.path))
			for k, p := range op.path {
				path[k] = links[p]
			}
			start(label, path, op.bytes, op.value, op.chain)
		case op.kind == 2:
			net.SetLinkLoad(l, op.value)
		case op.kind == 3:
			net.SetLinkCapacity(l, op.value)
		case op.kind == 6:
			for _, f := range started {
				net.CancelFlow(f)
			}
		case op.kind == 7:
			if c, ok := edgeCapacity(links[0], links[1], started[0], op.value > 0); ok {
				net.SetLinkCapacity(links[1], c)
			}
		case target == nil:
		case op.kind == 1:
			net.SetFlowCap(target, op.value)
		case op.kind == 4:
			if net.CancelFlow(target) {
				log = append(log, fmt.Sprintf("%s cancelled", target.Label))
			}
		case op.kind == 5:
			net.KillFlow(target)
		}
	}
	for i, ev := range events {
		n.eng.Schedule(ev.at, func() {
			for j, op := range ev.ops {
				label := fmt.Sprintf("f%d.%d", i, j)
				if op.later {
					n.eng.Schedule(n.eng.Now()+op.delay, func() { apply(label, op) })
				} else {
					apply(label, op)
				}
			}
		})
	}
	for n.eng.Step() {
		if check {
			verify()
		}
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("seed %d: %d flows still active after the run", seed, n.ActiveFlows())
	}
	return append(log, fmt.Sprintf("events %d", n.eng.Processed())), n.Reallocations
}

// TestAllocatorMatchesReference is the allocator's differential test: on
// seeded random networks, every rate after every event equals the
// textbook loop's bit for bit, and a full run gives the same completion
// and abort sequence, with the same finish-time bits, and the same
// number of events as a simulator that reallocates on every mutation and
// cancels and reschedules every completion each time. Settling once per
// event must also save reallocations across the seeds.
func TestAllocatorMatchesReference(t *testing.T) {
	var got, want uint64
	for seed := int64(0); seed < 150; seed++ {
		g, w := matchReference(t, seed)
		got, want = got+g, want+w
	}
	t.Logf("%d reallocations, reference %d", got, want)
	if got >= want {
		t.Fatalf("%d reallocations over 150 scripts, reference %d: events do not coalesce", got, want)
	}
}

// TestAllocatorMatchesReferenceWide is the differential test on wide
// scripts (wideScript), where a link's rate sum rounds and its bounds
// must fall back to the exact sum: every rate after every event equals
// the textbook loop's bit for bit.
func TestAllocatorMatchesReferenceWide(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		matchWide(t, seed)
	}
}

// FuzzAllocatorMatchesReference is the differential test on fuzzed seeds,
// in both script modes.
func FuzzAllocatorMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 149} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, wide bool) {
		if wide {
			matchWide(t, seed)
		} else {
			matchReference(t, seed)
		}
	})
}

// matchWide plays seed's wide script on a Network, checked after every
// event. The reference simulator is left out: it would reallocate once
// per start of the opening burst.
func matchWide(t *testing.T, seed int64) {
	t.Helper()
	n := New(simclock.NewEngine())
	runDiffScript(t, seed, true, n, n, true)
}

// matchReference plays seed's script on refNet and twice on a Network:
// once settled and checked after every event, and once left to settle
// when the engine next looks at its queue. Both logs must equal the
// reference's line by line, and neither run may reallocate more often.
// It returns the unchecked run's reallocations and the reference's.
func matchReference(t *testing.T, seed int64) (got, want uint64) {
	t.Helper()
	r := &refNet{Network: New(simclock.NewEngine()), events: map[*Flow]*simclock.Event{}}
	wantLog, want := runDiffScript(t, seed, false, r.Network, r, false)
	for _, check := range []bool{true, false} {
		n := New(simclock.NewEngine())
		var gotLog []string
		gotLog, got = runDiffScript(t, seed, false, n, n, check)
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d (checked %v): %d log lines, reference %d:\n%v\n%v", seed, check, len(gotLog), len(wantLog), gotLog, wantLog)
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d (checked %v): line %d is %q, reference %q", seed, check, i, gotLog[i], wantLog[i])
			}
		}
		if got > want {
			t.Fatalf("seed %d (checked %v): %d reallocations, reference %d", seed, check, got, want)
		}
	}
	return got, want
}

// TestReallocateAllocFree pins the steady state: on a 300-flow network,
// a load change and the settling after it reallocate once and move the
// completion event without a single heap allocation.
func TestReallocateAllocFree(t *testing.T) {
	n := New(simclock.NewEngine())
	links := make([]*Link, 12)
	for i := range links {
		links[i] = n.AddLink("l", 1e6, 0)
		if i%4 == 0 {
			links[i].FlowCap = 2e4
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		path := []*Link{links[rng.Intn(len(links))], links[rng.Intn(len(links))]}
		opts := FlowOpts{}
		if i%3 == 0 {
			opts.RateCap = 1e3 + rng.Float64()*1e4
		}
		n.StartFlow(path, 1e18, opts)
	}
	// Each visit to a link flips its load between 0.5 and 0, so every
	// call reallocates.
	calls := 0
	before := n.Reallocations
	allocs := testing.AllocsPerRun(100, func() {
		n.SetLinkLoad(links[calls%len(links)], float64(1-calls/len(links)%2)*0.5)
		n.settle()
		calls++
	})
	if n.Reallocations-before != uint64(calls) {
		t.Fatalf("%d calls reallocated %d times", calls, n.Reallocations-before)
	}
	if allocs != 0 {
		t.Fatalf("SetLinkLoad allocates %v times per call, want 0", allocs)
	}
}

// Mutations within one event cost one reallocation, made before the
// engine next looks at its queue: four load changes and a cap change
// reallocate once. A rate read between two mutations settles the first,
// so that event reallocates twice. The settled rates are the reference's.
func TestOneReallocationPerEvent(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	links := make([]*Link, 4)
	for i := range links {
		links[i] = n.AddLink(fmt.Sprint("l", i), 100, 0)
	}
	var flows []*Flow
	for i := range links {
		flows = append(flows, n.StartFlow([]*Link{links[i], links[(i+1)%len(links)]}, 1e9, FlowOpts{}))
	}
	eng.Pending()
	count := func(name string, want uint64, event func()) {
		t.Helper()
		before := n.Reallocations
		eng.Schedule(eng.Now()+1, event)
		eng.Step()
		eng.Pending()
		if got := n.Reallocations - before; got != want {
			t.Fatalf("%s: %d reallocations, want %d", name, got, want)
		}
		ref := referenceMaxMin(n.links, n.flows)
		for _, f := range flows {
			if math.Float64bits(f.rate) != math.Float64bits(ref[f]) {
				t.Fatalf("%s: rate %v, reference %v", name, f.rate, ref[f])
			}
		}
	}
	count("four loads and a cap", 1, func() {
		for i, l := range links {
			n.SetLinkLoad(l, 0.1*float64(i+1))
		}
		n.SetFlowCap(flows[0], 7)
	})
	count("a read between two loads", 2, func() {
		n.SetLinkLoad(links[0], 0.5)
		flows[0].Rate()
		n.SetLinkLoad(links[1], 0.5)
	})
}

// A completion due at the instant of an event scheduled after the flow
// started, in the same event, runs first: it is keyed by the number the
// start claimed, as an eager reallocation's claim would key it, not by
// one taken when the network settles.
func TestCompletionKeyedByLastMutation(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	var order []string
	eng.Schedule(0, func() {
		n.StartFlow([]*Link{l}, 1000, FlowOpts{OnComplete: func(*Flow) { order = append(order, "completion") }})
		eng.Schedule(10, func() { order = append(order, "scheduled") })
	})
	eng.Run()
	if got := fmt.Sprint(order); got != "[completion scheduled]" {
		t.Fatalf("order %s, want [completion scheduled]", got)
	}
}

// A 300-flow network keeps exactly one completion event pending while
// any flow can finish, whatever the reallocations in between, and runs
// one event per completed flow.
func TestOneCompletionEventPerNetwork(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	links := make([]*Link, 12)
	for i := range links {
		links[i] = n.AddLink("l", 1e6, 0)
	}
	rng := rand.New(rand.NewSource(5))
	pendingOK := func(when string) {
		want := 0
		if n.ActiveFlows() > 0 {
			want = 1
		}
		if eng.Pending() != want {
			t.Fatalf("%s: %d events pending with %d active flows, want %d", when, eng.Pending(), n.ActiveFlows(), want)
		}
	}
	done := 0
	for i := 0; i < 300; i++ {
		path := []*Link{links[rng.Intn(len(links))], links[rng.Intn(len(links))]}
		n.StartFlow(path, 1e5+rng.Float64()*1e6, FlowOpts{OnComplete: func(*Flow) {
			done++
			pendingOK("after a completion")
		}})
		n.SetLinkLoad(links[i%len(links)], float64(i%3)*0.3)
	}
	pendingOK("after 300 starts")
	eng.Run()
	if done != 300 || eng.Processed() != 300 {
		t.Fatalf("%d flows completed in %d events, want 300 in 300", done, eng.Processed())
	}
	pendingOK("at the end")
}

// Starting a flow and running it to completion allocates the Flow and
// nothing else once the network's slices have grown.
func TestFlowLifecycleAllocs(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	path := []*Link{n.AddLink("a", 1e6, 0), n.AddLink("b", 1e6, 0)}
	n.StartFlow(path, 1e9, FlowOpts{}) // a long flow the short ones share with
	allocs := testing.AllocsPerRun(100, func() {
		n.StartFlow(path, 1e3, FlowOpts{})
		eng.Step()
	})
	if allocs != 1 {
		t.Fatalf("StartFlow and its completion allocate %v times, want 1", allocs)
	}
	// A released flow is the next start's struct, so the cycle allocates
	// nothing.
	allocs = testing.AllocsPerRun(100, func() {
		f := n.StartFlow(path, 1e3, FlowOpts{})
		eng.Step()
		n.Release(f)
	})
	if allocs != 0 {
		t.Fatalf("StartFlow, its completion and Release allocate %v times, want 0", allocs)
	}
}

// Release hands a finished flow's struct to the next StartFlow, which
// gives it a fresh id; releasing an active flow, a released one or
// another network's panics, and a released handle takes no mutation.
func TestReleaseRecyclesFlow(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l := n.AddLink("l", 100, 0)
	f := n.StartFlow([]*Link{l}, 100, FlowOpts{Label: "a"})
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("releasing an active flow", func() { n.Release(f) })
	eng.Run()
	mustPanic("releasing another network's flow", func() { New(eng).Release(f) })
	id := f.id
	n.Release(f)
	mustPanic("releasing a flow twice", func() { n.Release(f) })
	if n.KillFlow(f) || n.CancelFlow(f) {
		t.Fatal("a released flow was aborted")
	}
	n.SetFlowCap(f, 5)
	g := n.StartFlow([]*Link{l}, 100, FlowOpts{Label: "b"})
	if g != f || g.id != id+1 || g.Label != "b" || g.State() != FlowActive || g.Cap() != Inf {
		t.Fatalf("restart got %p id %d label %q state %v cap %v, want the released %p with id %d, label b, active, uncapped",
			g, g.id, g.Label, g.State(), g.Cap(), f, id+1)
	}
	eng.Run()
	if g.State() != FlowDone || g.FinishedAt() != 2 {
		t.Fatalf("recycled flow state %v, finished at %v, want done at 2", g.State(), g.FinishedAt())
	}
}

// Recycling moves nothing: chains of back-to-back flows on shared links,
// started from each finished flow's completion as transport's sends are,
// under load changes, finish at the same bits in the same events whether
// each finished flow is released or left to the collector.
func TestReleaseKeepsTimes(t *testing.T) {
	run := func(release bool) []string {
		eng := simclock.NewEngine()
		n := New(eng)
		links := make([]*Link, 5)
		for i := range links {
			links[i] = n.AddLink(fmt.Sprint("l", i), 1e6*float64(i+1), 0)
		}
		rng := rand.New(rand.NewSource(11))
		var log []string
		var send func(chain, left int)
		send = func(chain, left int) {
			path := []*Link{links[rng.Intn(len(links))], links[rng.Intn(len(links))]}
			n.StartFlow(path, 1e4+rng.Float64()*1e6, FlowOpts{
				RateCap: float64(rng.Intn(3)) * 3e5,
				OnComplete: func(f *Flow) {
					log = append(log, fmt.Sprintf("%d %d %x", chain, f.id, math.Float64bits(float64(f.finishedAt))))
					if release {
						n.Release(f)
					}
					if left > 0 {
						send(chain, left-1)
					}
				},
			})
		}
		for c := 0; c < 8; c++ {
			send(c, 30)
		}
		for i := 0; i < 40; i++ {
			l := links[i%len(links)]
			eng.Schedule(simclock.Time(i)*0.05, func() { n.SetLinkLoad(l, rng.Float64()) })
		}
		eng.Run()
		return append(log, fmt.Sprintf("events %d reallocs %d", eng.Processed(), n.Reallocations))
	}
	kept, released := run(false), run(true)
	if len(kept) != 8*31+1 {
		t.Fatalf("%d log lines, want %d", len(kept), 8*31+1)
	}
	for i := range kept {
		if released[i] != kept[i] {
			t.Fatalf("line %d: released %q, kept %q", i, released[i], kept[i])
		}
	}
}

// TestEqualTimeCompletionsRunInFlowOrder pins the tie order a full
// reschedule gives: completions due at the same instant run in flow-id
// order, even when only one of them moved. Flow b shares its link with c
// until c completes at t=5, which moves b's completion from t=15 to
// t=10, the instant a's has been due at since t=0. An allocator that
// skipped a's unchanged completion would run a before b.
func TestEqualTimeCompletionsRunInFlowOrder(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	l1 := n.AddLink("l1", 100, 0)
	l2 := n.AddLink("l2", 100, 0)
	var order []string
	done := func(f *Flow) { order = append(order, fmt.Sprintf("%s@%v", f.Label, f.FinishedAt())) }
	n.StartFlow([]*Link{l1}, 750, FlowOpts{Label: "b", OnComplete: done})
	n.StartFlow([]*Link{l1}, 250, FlowOpts{Label: "c", OnComplete: done})
	n.StartFlow([]*Link{l2}, 1000, FlowOpts{Label: "a", OnComplete: done})
	eng.Run()
	if got := fmt.Sprint(order); got != "[c@5 b@10 a@10]" {
		t.Fatalf("completion order %s, want [c@5 b@10 a@10]", got)
	}
}

// countingSource records how often fluid asks it to sync.
type countingSource struct{ syncs int }

func (s *countingSource) Sync() { s.syncs++ }

// An idle link's load source syncs before each exported read, each
// SetLinkLoad (early returns included) and a flow attaching to the link;
// a link that carries a flow never syncs, and reallocation never syncs.
func TestLoadSourceSyncPoints(t *testing.T) {
	eng := simclock.NewEngine()
	n := New(eng)
	busy, idle := n.AddLink("busy", 100, 0), n.AddLink("idle", 100, 0)
	bs, is := &countingSource{}, &countingSource{}
	busy.SetSource(bs)
	idle.SetSource(is)
	if busy.Source() != LoadSource(bs) {
		t.Fatal("Source does not return the installed source")
	}

	step := func(name string, want int, do func()) {
		t.Helper()
		before := is.syncs
		do()
		if got := is.syncs - before; got != want {
			t.Errorf("%s: idle link synced %d times, want %d", name, got, want)
		}
	}
	step("Load", 1, func() { idle.Load() })
	step("Available", 1, func() { idle.Available() })
	step("Utilization", 1, func() { idle.Utilization() })
	step("BottleneckCapacity", 1, func() { BottleneckCapacity([]*Link{idle}) })
	step("SetLinkLoad", 1, func() { n.SetLinkLoad(idle, 0.5) })
	step("SetLinkLoad unchanged", 1, func() { n.SetLinkLoad(idle, 0.5) })
	step("flow elsewhere", 0, func() { n.StartFlow([]*Link{busy}, 1e6, FlowOpts{}) })

	busySyncs := bs.syncs
	f := n.StartFlow([]*Link{busy}, 1e6, FlowOpts{})
	n.SetLinkLoad(busy, 0.3)
	busy.Load()
	busy.Available()
	busy.Utilization()
	n.SetFlowCap(f, 10)
	eng.Advance(1)
	if bs.syncs != busySyncs {
		t.Errorf("a link carrying flows synced %d times", bs.syncs-busySyncs)
	}

	var g *Flow
	step("flow attach", 1, func() { g = n.StartFlow([]*Link{idle, busy}, 1e6, FlowOpts{}) })
	step("read with a flow", 0, func() { idle.Load() })
	n.CancelFlow(g)
	step("read after the flow left", 1, func() { idle.Load() })

	idle.SetSource(nil)
	step("no source", 0, func() { idle.Load() })
}
