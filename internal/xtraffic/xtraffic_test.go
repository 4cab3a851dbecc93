package xtraffic

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

func setup() (*simclock.Engine, *fluid.Network, *fluid.Link) {
	eng := simclock.NewEngine()
	fl := fluid.New(eng)
	l := fl.AddLink("l", 100, 0.001)
	return eng, fl, l
}

func TestLoadStaysInBounds(t *testing.T) {
	eng, fl, l := setup()
	p := Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 1}, rand.New(rand.NewSource(1)))
	for i := 0; i < 200; i++ {
		eng.Advance(5)
		if p.Load() < 0 || p.Load() > 0.95 {
			t.Fatalf("load out of bounds: %v", p.Load())
		}
		if l.Load() != p.Load() {
			t.Fatalf("link load %v != process load %v", l.Load(), p.Load())
		}
	}
	p.Stop()
}

func TestMeanLoadApproximatelyHeld(t *testing.T) {
	eng, fl, l := setup()
	p := Attach(fl, l, Config{MeanLoad: 0.4, Burstiness: 0.5, Interval: 1}, rand.New(rand.NewSource(7)))
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		eng.Advance(1)
		sum += p.Load()
	}
	avg := sum / float64(n)
	if avg < 0.3 || avg > 0.5 {
		t.Fatalf("long-run average load = %v, want ~0.4", avg)
	}
	p.Stop()
}

func TestZeroBurstinessIsConstant(t *testing.T) {
	eng, fl, l := setup()
	p := Attach(fl, l, Config{MeanLoad: 0.3, Burstiness: 0}, rand.New(rand.NewSource(2)))
	for i := 0; i < 50; i++ {
		eng.Advance(5)
		if p.Load() != 0.3 {
			t.Fatalf("burstiness 0 load = %v, want exactly 0.3", p.Load())
		}
	}
	p.Stop()
	if l.Load() != 0 {
		t.Fatal("Stop did not clear link load")
	}
}

func TestStopHaltsResampling(t *testing.T) {
	eng, fl, l := setup()
	p := Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 1}, rand.New(rand.NewSource(3)))
	p.Stop()
	p.Stop() // idempotent
	if eng.Pending() != 0 {
		t.Fatalf("events still pending after Stop: %d", eng.Pending())
	}
	_ = l
}

func TestDeterministicForSameSeed(t *testing.T) {
	trace := func(seed int64) []float64 {
		eng, fl, l := setup()
		p := Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 0.8}, rand.New(rand.NewSource(seed)))
		var out []float64
		for i := 0; i < 30; i++ {
			eng.Advance(5)
			out = append(out, p.Load())
		}
		p.Stop()
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestAutocorrelationPersists(t *testing.T) {
	// With high alpha, consecutive samples should be closer than samples
	// far apart, on average.
	eng, fl, l := setup()
	p := Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 1, Interval: 1, Alpha: 0.9}, rand.New(rand.NewSource(11)))
	var xs []float64
	for i := 0; i < 1000; i++ {
		eng.Advance(1)
		xs = append(xs, p.Load())
	}
	p.Stop()
	var d1, d10 float64
	for i := 0; i+10 < len(xs); i++ {
		d1 += abs(xs[i+1] - xs[i])
		d10 += abs(xs[i+10] - xs[i])
	}
	if d1 >= d10 {
		t.Fatalf("no autocorrelation: adjacent diffs %v >= lag-10 diffs %v", d1, d10)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestControllerStopAll(t *testing.T) {
	eng, fl, _ := setup()
	c := NewController()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		l := fl.AddLink("x", 100, 0)
		c.Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 0.5}, rng)
	}
	if len(c.procs) != 4 {
		t.Fatalf("tracked %d processes, want 4", len(c.procs))
	}
	eng.Advance(20)
	c.StopAll()
	if eng.Pending() != 0 {
		t.Fatalf("pending events after StopAll: %d", eng.Pending())
	}
}

func TestCrossTrafficSlowsForegroundFlow(t *testing.T) {
	eng, fl, l := setup()
	Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 0}, rand.New(rand.NewSource(9)))
	f := fl.StartFlow([]*fluid.Link{l}, 1000, fluid.FlowOpts{})
	// Link capacity 100, half loaded -> rate 50 -> 20s.
	eng.RunUntil(25)
	if f.State() != fluid.FlowDone {
		t.Fatal("flow not done by t=25")
	}
	got := float64(f.FinishedAt())
	if got < 19.9 || got > 20.1 {
		t.Fatalf("finish at %v, want 20", got)
	}
}

func TestConfigClamping(t *testing.T) {
	c := Config{MeanLoad: 2, Burstiness: -1, Alpha: 1.5}.withDefaults()
	if c.MeanLoad != 0.95 || c.Burstiness != 0 || c.Alpha >= 1 {
		t.Fatalf("clamping wrong: %+v", c)
	}
	if c.Interval != 5 {
		t.Fatalf("default interval = %v", c.Interval)
	}
}

// Every range check in withDefaults is false on NaN, so a non-finite
// config field would pass it and fail much later, or never. Attach and
// AttachOnOff refuse one at once, naming the package.
func TestNonFiniteConfigPanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	refused := func(name string, attach func(*fluid.Network, *fluid.Link)) {
		t.Helper()
		_, fl, l := setup()
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: attach did not panic", name)
				} else if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "xtraffic: non-finite") {
					t.Errorf("%s: panic %q", name, msg)
				}
			}()
			attach(fl, l)
		}()
		if l.Source() != nil || l.Load() != 0 {
			t.Errorf("%s: a refused attach left a source or load on the link", name)
		}
	}
	for name, c := range map[string]Config{
		"MeanLoad NaN":   {MeanLoad: nan, Burstiness: 0.5},
		"Burstiness NaN": {MeanLoad: 0.5, Burstiness: nan},
		"Interval NaN":   {MeanLoad: 0.5, Interval: nan},
		"Interval +Inf":  {MeanLoad: 0.5, Interval: inf},
		"Alpha NaN":      {MeanLoad: 0.5, Alpha: nan},
	} {
		refused(name, func(fl *fluid.Network, l *fluid.Link) { Attach(fl, l, c, rand.New(rand.NewSource(1))) })
	}
	for name, c := range map[string]OnOffConfig{
		"GoodLoad NaN": {GoodLoad: nan, BadLoad: 0.8, MeanGood: 3, MeanBad: 2},
		"BadLoad -Inf": {GoodLoad: 0.1, BadLoad: -inf, MeanGood: 3, MeanBad: 2},
		"MeanGood NaN": {GoodLoad: 0.1, BadLoad: 0.8, MeanGood: nan, MeanBad: 2},
		"MeanBad NaN":  {GoodLoad: 0.1, BadLoad: 0.8, MeanGood: 3, MeanBad: nan},
		"MeanBad +Inf": {GoodLoad: 0.1, BadLoad: 0.8, MeanGood: 3, MeanBad: inf},
	} {
		refused(name, func(fl *fluid.Network, l *fluid.Link) { AttachOnOff(fl, l, c, rand.New(rand.NewSource(1))) })
	}
}

// A process on a link that carries a flow re-arms its one event in
// place, so a steady-state re-sample allocates nothing: no Event, no
// callback closure. On an idle link it queues nothing at all, and the
// catch-up a read triggers allocates nothing either.
func TestSteadyStepAllocatesNothing(t *testing.T) {
	for name, attach := range map[string]func(*fluid.Network, *fluid.Link){
		"ar1": func(fl *fluid.Network, l *fluid.Link) {
			Attach(fl, l, Config{MeanLoad: 0.5, Burstiness: 1}, rand.New(rand.NewSource(1)))
		},
		"onoff": func(fl *fluid.Network, l *fluid.Link) {
			AttachOnOff(fl, l, OnOffConfig{GoodLoad: 0.1, BadLoad: 0.8, MeanGood: 3, MeanBad: 2}, rand.New(rand.NewSource(2)))
		},
	} {
		// Loaded link: a flow too large to finish keeps the process
		// awake, so the queue holds the flow's completion and exactly
		// one re-sample, and every Step below is one re-sample.
		eng, fl, l := setup()
		attach(fl, l)
		fl.StartFlow([]*fluid.Link{l}, 1e15, fluid.FlowOpts{})
		if n := testing.AllocsPerRun(200, func() { eng.Step() }); n != 0 {
			t.Errorf("%s: steady-state step allocates %v times", name, n)
		}
		if eng.Pending() != 2 {
			t.Errorf("%s: %d events pending, want the completion and one re-sample", name, eng.Pending())
		}

		// Idle link: after the first re-sample nothing is queued; a
		// read catches up on demand.
		eng, fl, l = setup()
		attach(fl, l)
		eng.Step()
		if eng.Pending() != 0 {
			t.Errorf("%s: idle link has %d events pending, want 0", name, eng.Pending())
		}
		if n := testing.AllocsPerRun(200, func() {
			eng.Advance(20) // runs the re-sample the last read armed, then idles
			l.Load()        // catches up the rest and re-arms
		}); n != 0 {
			t.Errorf("%s: steady catch-up allocates %v times", name, n)
		}
	}
}

// A link takes one live load process: a second Attach panics until the
// first is stopped, and stopping a process leaves another's source alone.
func TestOneLiveSourcePerLink(t *testing.T) {
	_, fl, l := setup()
	first := Attach(fl, l, Config{MeanLoad: 0.3}, rand.New(rand.NewSource(1)))
	mustPanic := func(name string, attach func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s on a link with a live process did not panic", name)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, `"l"`) || !strings.Contains(msg, "live load process") {
				t.Errorf("%s panic %q does not name the link and the live process", name, msg)
			}
		}()
		attach()
	}
	mustPanic("Attach", func() { Attach(fl, l, Config{MeanLoad: 0.5}, rand.New(rand.NewSource(2))) })
	mustPanic("AttachOnOff", func() {
		AttachOnOff(fl, l, OnOffConfig{GoodLoad: 0.1, BadLoad: 0.8, MeanGood: 3, MeanBad: 2}, rand.New(rand.NewSource(3)))
	})
	if l.Source() == nil {
		t.Fatal("a refused Attach cleared the live source")
	}

	first.Stop()
	if l.Source() != nil {
		t.Fatal("Stop left its source on the link")
	}
	second := AttachOnOff(fl, l, OnOffConfig{GoodLoad: 0.1, BadLoad: 0.8, MeanGood: 3, MeanBad: 2}, rand.New(rand.NewSource(4)))
	first.Stop() // already stopped: must not touch the new source
	if l.Source() == nil {
		t.Fatal("stopping an old process removed the new one's source")
	}
	second.Stop()
	if l.Source() != nil {
		t.Fatal("Stop left its source on the link")
	}

	// A source installed over a live process stays when that process stops.
	third := Attach(fl, l, Config{MeanLoad: 0.3}, rand.New(rand.NewSource(5)))
	other := &Process{}
	l.SetSource(other)
	third.Stop()
	if l.Source() != fluid.LoadSource(other) {
		t.Fatal("Stop removed a source that was not its own")
	}
}

// BenchmarkStopAllIdle is the teardown at the end of a workload: 50
// processes (every fifth on/off, the rest AR(1)) that have sat on idle
// links for an hour of virtual time are stopped together. Only StopAll
// is timed.
func BenchmarkStopAllIdle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := simclock.NewEngine()
		fl := fluid.New(eng)
		c := NewController()
		seeds := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 50; j++ {
			l := fl.AddLink(fmt.Sprint("l", j), 1e6, 0.001)
			rng := rand.New(rand.NewSource(seeds.Int63()))
			if j%5 == 0 {
				c.AttachOnOff(fl, l, OnOffConfig{GoodLoad: 0.1, BadLoad: 0.85, MeanGood: 420, MeanBad: 160}, rng)
			} else {
				c.Attach(fl, l, Config{MeanLoad: 0.3, Burstiness: 0.6}, rng)
			}
		}
		eng.Advance(3600)
		b.StartTimer()
		c.StopAll()
	}
}
