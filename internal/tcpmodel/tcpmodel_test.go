package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

func TestDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.RwndBytes != 1<<20 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestConnectDelay(t *testing.T) {
	if d := ConnectDelay(0.040, false); math.Abs(d-0.040) > 1e-12 {
		t.Fatalf("TCP connect = %v, want 1 RTT", d)
	}
	if d := ConnectDelay(0.040, true); math.Abs(d-0.120) > 1e-12 {
		t.Fatalf("TLS connect = %v, want 3 RTT", d)
	}
}

func TestMaxRate(t *testing.T) {
	p := Params{RwndBytes: 1e6}
	if r := p.MaxRate(0.1); math.Abs(r-1e7) > 1 {
		t.Fatalf("MaxRate = %v, want 1e7", r)
	}
	if !math.IsInf(p.MaxRate(0), 1) {
		t.Fatal("zero RTT should be uncapped")
	}
}

func TestCwndStartsAtIW(t *testing.T) {
	c := NewCwnd()
	if c.bytes != 14600 {
		t.Fatalf("initial cwnd = %v, want 14600", c.bytes)
	}
	if r := c.RateCap(0.1); math.Abs(r-146000) > 1e-9 {
		t.Fatalf("RateCap = %v", r)
	}
}

func TestRampDoublesToRwnd(t *testing.T) {
	eng := simclock.NewEngine()
	fl := fluid.New(eng)
	l := fl.AddLink("l", 1e12, 0.05) // effectively unconstrained link
	params := Params{RwndBytes: 1 << 20}
	cwnd := NewCwnd()
	f := fl.StartFlow([]*fluid.Link{l}, 1e15, fluid.FlowOpts{})
	NewRamp(fl, cwnd, params, 0.1).Start(f)
	if got := f.Cap(); math.Abs(got-146000) > 1 {
		t.Fatalf("initial cap = %v", got)
	}
	eng.Advance(0.1)
	if got := f.Cap(); math.Abs(got-292000) > 1 {
		t.Fatalf("cap after 1 RTT = %v, want doubled", got)
	}
	// After enough RTTs the window saturates at rwnd.
	eng.Advance(2)
	want := float64(1<<20) / 0.1
	if got := f.Cap(); math.Abs(got-want) > 1 {
		t.Fatalf("saturated cap = %v, want %v", got, want)
	}
	if cwnd.bytes != 1<<20 {
		t.Fatalf("cwnd = %v, want rwnd", cwnd.bytes)
	}
	fl.CancelFlow(f)
	eng.Run()
}

func TestRampStopsWhenFlowDone(t *testing.T) {
	eng := simclock.NewEngine()
	fl := fluid.New(eng)
	l := fl.AddLink("l", 1e6, 0.01)
	params := Params{}
	cwnd := NewCwnd()
	f := fl.StartFlow([]*fluid.Link{l}, 20000, fluid.FlowOpts{})
	NewRamp(fl, cwnd, params, 0.1).Start(f)
	eng.Run() // must terminate: ramp must not keep scheduling forever
	if f.State() != fluid.FlowDone {
		t.Fatal("flow did not finish")
	}
}

func TestRampStopCancels(t *testing.T) {
	eng := simclock.NewEngine()
	fl := fluid.New(eng)
	l := fl.AddLink("l", 1e9, 0.01)
	params := Params{}
	cwnd := NewCwnd()
	f := fl.StartFlow([]*fluid.Link{l}, 1e12, fluid.FlowOpts{})
	r := NewRamp(fl, cwnd, params, 0.1)
	r.Start(f)
	before := cwnd.bytes
	r.Stop()
	r.Stop() // idempotent
	eng.Advance(1)
	if cwnd.bytes != before {
		t.Fatal("cwnd grew after Stop")
	}
	fl.CancelFlow(f)
}

// One ramp serves a connection direction's transfers in turn: each
// Start re-arms its one doubling event, a Start while it still runs
// stops the previous flow's growth, and Stop leaves nothing queued.
func TestRampRestartsInPlace(t *testing.T) {
	eng := simclock.NewEngine()
	fl := fluid.New(eng)
	l := fl.AddLink("l", 1e12, 0.01)
	params := Params{RwndBytes: 1 << 30} // never saturates here
	cwnd := NewCwnd()
	r := NewRamp(fl, cwnd, params, 0.1)
	for i := 0; i < 5; i++ {
		f := fl.StartFlow([]*fluid.Link{l}, 1e15, fluid.FlowOpts{})
		r.Start(f)
		eng.Advance(0.25) // two doublings
		r.Stop()
		fl.CancelFlow(f)
		if n := eng.Pending(); n != 0 {
			t.Fatalf("transfer %d: %d events left after Stop", i, n)
		}
	}
	if want := 14600.0 * (1 << 10); cwnd.bytes != want {
		t.Fatalf("cwnd %v after 5 x 2 doublings, want %v", cwnd.bytes, want)
	}
	f1 := fl.StartFlow([]*fluid.Link{l}, 1e15, fluid.FlowOpts{})
	f2 := fl.StartFlow([]*fluid.Link{l}, 1e15, fluid.FlowOpts{})
	r.Start(f1)
	r.Start(f2)
	fl.CancelFlow(f1)
	fl.CancelFlow(f2)
	if n := eng.Pending(); n != 1 {
		t.Fatalf("%d events pending, want the one doubling", n)
	}
	r.Stop()
}

func TestCwndSharedAcrossTransfers(t *testing.T) {
	// Second transfer on the same connection starts from the ramped
	// window, not from IW.
	eng := simclock.NewEngine()
	fl := fluid.New(eng)
	l := fl.AddLink("l", 1e9, 0.01)
	params := Params{RwndBytes: 1 << 20}
	cwnd := NewCwnd()
	r := NewRamp(fl, cwnd, params, 0.05)
	f1 := fl.StartFlow([]*fluid.Link{l}, 5e6, fluid.FlowOpts{})
	r.Start(f1)
	eng.Run()
	rampedTo := cwnd.bytes
	if rampedTo <= 14600 {
		t.Fatalf("cwnd never grew: %v", rampedTo)
	}
	f2 := fl.StartFlow([]*fluid.Link{l}, 5e6, fluid.FlowOpts{})
	r.Start(f2)
	if f2.Cap() != cwnd.RateCap(0.05) || cwnd.bytes != rampedTo {
		t.Fatal("second transfer did not inherit ramped window")
	}
	eng.Run()
}

func TestSlowStartMakesSmallTransfersSublinear(t *testing.T) {
	// Time for 2x bytes should be < 2x time for small transfers (the ramp
	// dominates), approaching 2x for large ones.
	dur := func(bytes float64) float64 {
		eng := simclock.NewEngine()
		fl := fluid.New(eng)
		l := fl.AddLink("l", 1e7, 0.025)
		params := Params{RwndBytes: 4 << 20}
		cwnd := NewCwnd()
		f := fl.StartFlow([]*fluid.Link{l}, bytes, fluid.FlowOpts{})
		NewRamp(fl, cwnd, params, 0.05).Start(f)
		eng.Run()
		return float64(f.FinishedAt() - f.StartedAt())
	}
	small1, small2 := dur(50e3), dur(100e3)
	if small2 >= 2*small1 {
		t.Fatalf("small transfers linear: %v vs %v", small1, small2)
	}
	big1, big2 := dur(50e6), dur(100e6)
	ratio := big2 / big1
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("large transfers should be ~linear: ratio %v", ratio)
	}
}

func TestEstimateTransferTimeMatchesSimulation(t *testing.T) {
	// The closed-form estimator should track the simulated time within a
	// few percent when the bottleneck is stable.
	params := Params{RwndBytes: 4 << 20}
	rtt := 0.04
	rate := 5e6
	for _, size := range []float64{1e5, 1e6, 1e7, 1e8} {
		eng := simclock.NewEngine()
		fl := fluid.New(eng)
		l := fl.AddLink("l", rate, rtt/2)
		cwnd := NewCwnd()
		f := fl.StartFlow([]*fluid.Link{l}, size, fluid.FlowOpts{})
		NewRamp(fl, cwnd, params, rtt).Start(f)
		eng.Run()
		sim := float64(f.FinishedAt() - f.StartedAt())
		est := params.EstimateTransferTime(size, rate, rtt)
		if math.Abs(sim-est)/sim > 0.25 {
			t.Fatalf("size %v: sim %v vs est %v", size, sim, est)
		}
	}
}

func TestEstimateEdgeCases(t *testing.T) {
	p := Params{}
	if p.EstimateTransferTime(0, 1e6, 0.05) != 0 {
		t.Fatal("zero size should take zero time")
	}
	if !math.IsInf(p.EstimateTransferTime(1e6, 0, 0.05), 1) {
		t.Fatal("zero rate should be infinite")
	}
}

func TestPropertyEstimateMonotoneInSize(t *testing.T) {
	p := Params{}
	f := func(a, b uint32) bool {
		s1, s2 := float64(a%100000000), float64(b%100000000)
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		t1 := p.EstimateTransferTime(s1, 2e6, 0.05)
		t2 := p.EstimateTransferTime(s2, 2e6, 0.05)
		return t1 <= t2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEstimateMonotoneInRate(t *testing.T) {
	p := Params{}
	f := func(a, b uint32) bool {
		r1, r2 := 1e3+float64(a%10000000), 1e3+float64(b%10000000)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		t1 := p.EstimateTransferTime(5e7, r1, 0.05)
		t2 := p.EstimateTransferTime(5e7, r2, 0.05)
		return t2 <= t1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
