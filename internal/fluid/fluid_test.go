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

				// Capacity invariant check at every arrival.
				for _, l := range links {
					var sum float64
					for _, fl := range l.flows {
						sum += fl.rate
					}
					if sum > l.Available()*(1+1e-6) {
						panic("link over-allocated")
					}
				}
				// Cap invariant.
				for _, fl := range n.flows {
					if fl.rate > fl.cap*(1+1e-9) {
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
			n.reallocate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.SetLinkLoad(links[i%len(links)], float64(i%50)/100)
			}
		})
	}
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

// refNet drives a Network the way the textbook simulator does: rates
// from referenceMaxMin, and on every reallocation each completion event
// is cancelled and a new one scheduled. Its mutators shadow Network's.
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
	at     simclock.Time
	kind   int // 0 start, 1 cap, 2 load, 3 capacity, 4 cancel, 5 kill
	path   []int
	bytes  float64
	value  float64
	target int
}

// diffScript draws a random network and mutation script: links with
// FlowCaps, paths that repeat a link, uncapped flows, loads past the
// 0.98 clamp, and bursts of identical flows that tie to the instant.
func diffScript(seed int64) (caps, flowCaps []float64, ops []diffOp) {
	rng := rand.New(rand.NewSource(seed))
	nl := 2 + rng.Intn(6)
	for i := 0; i < nl; i++ {
		caps = append(caps, float64(10+rng.Intn(4)*30))
		fc := 0.0
		if rng.Intn(4) == 0 {
			fc = float64(5 + rng.Intn(3)*10)
		}
		flowCaps = append(flowCaps, fc)
	}
	for i := 0; i < 40; i++ {
		at := simclock.Time(rng.Intn(60)) / 2
		op := diffOp{at: at, kind: rng.Intn(6), target: rng.Intn(64)}
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
			for k := rng.Intn(3); k >= 0; k-- {
				ops = append(ops, op) // identical flows, same instant
			}
			continue
		case 1:
			op.value = float64(rng.Intn(50)) // 0 lifts the cap
		case 2:
			op.value = []float64{-0.5, 0, 0.3, 0.5, 0.97, 0.98, 1.5}[rng.Intn(7)]
		case 3:
			op.value = float64(5 + rng.Intn(6)*25)
		}
		ops = append(ops, op)
	}
	return caps, flowCaps, ops
}

// runDiffScript plays the script on net (built over n) and returns the
// log of completions and aborts: label, state and the finish time bits.
// When check is set it asserts, after every mutation and completion,
// that each active flow's rate equals referenceMaxMin's bit for bit.
func runDiffScript(t *testing.T, seed int64, n *Network, net flowNet, check bool) []string {
	t.Helper()
	caps, flowCaps, ops := diffScript(seed)
	links := make([]*Link, len(caps))
	for i := range caps {
		links[i] = n.AddLink(fmt.Sprint("l", i), caps[i], 0)
		links[i].FlowCap = flowCaps[i]
	}
	var log []string
	verify := func(what string) {
		if !check {
			return
		}
		want := referenceMaxMin(n.links, n.flows)
		for _, f := range n.flows {
			if math.Float64bits(f.rate) != math.Float64bits(want[f]) {
				t.Fatalf("seed %d after %s at t=%v: flow %s rate %v, reference %v",
					seed, what, n.eng.Now(), f.Label, f.rate, want[f])
			}
		}
	}
	record := func(f *Flow) {
		log = append(log, fmt.Sprintf("%s %d %x", f.Label, f.state, math.Float64bits(float64(f.finishedAt))))
		verify("completion of " + f.Label)
	}
	var started []*Flow
	for i, op := range ops {
		n.eng.Schedule(op.at, func() {
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
				started = append(started, net.StartFlow(path, op.bytes, FlowOpts{
					Label: fmt.Sprint("f", i), RateCap: op.value, OnComplete: record, OnAbort: record,
				}))
			case op.kind == 2:
				net.SetLinkLoad(l, op.value)
			case op.kind == 3:
				net.SetLinkCapacity(l, op.value)
			case target == nil:
				return
			case op.kind == 1:
				net.SetFlowCap(target, op.value)
			case op.kind == 4:
				if net.CancelFlow(target) {
					log = append(log, fmt.Sprintf("%s cancelled", target.Label))
				}
			case op.kind == 5:
				net.KillFlow(target)
			}
			verify(fmt.Sprintf("op %d (kind %d)", i, op.kind))
		})
	}
	n.eng.Run()
	if n.ActiveFlows() != 0 {
		t.Fatalf("seed %d: %d flows still active after the run", seed, n.ActiveFlows())
	}
	return append(log, fmt.Sprintf("reallocations %d events %d", n.Reallocations, n.eng.Processed()))
}

// TestAllocatorMatchesReference is the allocator's differential test: on
// seeded random networks, every rate after every mutation equals the
// textbook loop's bit for bit, and a full run gives the same completion
// and abort sequence, with the same finish-time bits, as a simulator that
// cancels and reschedules every completion on every reallocation.
func TestAllocatorMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		n := New(simclock.NewEngine())
		got := runDiffScript(t, seed, n, n, true)
		r := &refNet{Network: New(simclock.NewEngine()), events: map[*Flow]*simclock.Event{}}
		want := runDiffScript(t, seed, r.Network, r, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference %d:\n%v\n%v", seed, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d is %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestReallocateAllocFree pins the steady state: on a 300-flow network,
// a capacity change reallocates and moves every completion without a
// single heap allocation.
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
		calls++
	})
	if n.Reallocations-before != uint64(calls) {
		t.Fatalf("%d calls reallocated %d times", calls, n.Reallocations-before)
	}
	if allocs != 0 {
		t.Fatalf("SetLinkLoad allocates %v times per call, want 0", allocs)
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
