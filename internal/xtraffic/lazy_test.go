package xtraffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

// eagerProcess is the AR(1) process as it ran before re-samples became
// lazy: its event re-samples and re-arms every interval whether or not a
// flow crosses the link. It is the oracle for TestLazyMatchesEager.
type eagerProcess struct {
	fl      *fluid.Network
	link    *fluid.Link
	cfg     Config
	rng     *rand.Rand
	load    float64
	stopped bool
	next    *simclock.Event
}

func attachEager(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *eagerProcess {
	p := &eagerProcess{fl: fl, link: link, cfg: cfg.withDefaults(), rng: rng}
	p.load = clampLoad(p.cfg.MeanLoad + p.noise()/math.Sqrt(1-p.cfg.Alpha*p.cfg.Alpha))
	fl.SetLinkLoad(link, p.load)
	p.schedule()
	return p
}

func (p *eagerProcess) noise() float64 {
	sigma := p.cfg.Burstiness * math.Max(p.cfg.MeanLoad, 0.05) * 0.6
	return p.rng.NormFloat64() * sigma
}

func (p *eagerProcess) schedule() {
	eng := p.fl.Engine()
	d := p.cfg.Interval * (0.9 + 0.2*p.rng.Float64())
	if !eng.Rearm(p.next, eng.Now()+simclock.Time(d)) {
		p.next = eng.After(d, p.step)
	}
}

func (p *eagerProcess) step() {
	if p.stopped {
		return
	}
	c := p.cfg
	p.load = clampLoad(c.MeanLoad + c.Alpha*(p.load-c.MeanLoad) + p.noise())
	p.fl.SetLinkLoad(p.link, p.load)
	p.schedule()
}

func (p *eagerProcess) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	if p.next != nil {
		p.fl.Engine().Cancel(p.next)
		p.next = nil
	}
	p.fl.SetLinkLoad(p.link, 0)
}

// eagerStopper is an eager process of either kind.
type eagerStopper interface{ Stop() }

// eagerOnOff is the eager two-state process, the oracle for OnOffProcess.
type eagerOnOff struct {
	fl      *fluid.Network
	link    *fluid.Link
	cfg     OnOffConfig
	rng     *rand.Rand
	bad     bool
	stopped bool
	next    *simclock.Event
}

func attachEagerOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *eagerOnOff {
	p := &eagerOnOff{fl: fl, link: link, cfg: cfg, rng: rng}
	p.bad = rng.Float64() < cfg.MeanBad/(cfg.MeanGood+cfg.MeanBad)
	p.apply()
	p.schedule()
	return p
}

func (p *eagerOnOff) apply() {
	load := p.cfg.GoodLoad
	if p.bad {
		load = p.cfg.BadLoad
	}
	p.fl.SetLinkLoad(p.link, clampLoad(load))
}

func (p *eagerOnOff) schedule() {
	mean := p.cfg.MeanGood
	if p.bad {
		mean = p.cfg.MeanBad
	}
	eng := p.fl.Engine()
	d := p.rng.ExpFloat64() * mean
	if !eng.Rearm(p.next, eng.Now()+simclock.Time(d)) {
		p.next = eng.After(d, p.step)
	}
}

func (p *eagerOnOff) step() {
	if p.stopped {
		return
	}
	p.bad = !p.bad
	p.apply()
	p.schedule()
}

func (p *eagerOnOff) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	if p.next != nil {
		p.fl.Engine().Cancel(p.next)
		p.next = nil
	}
	p.fl.SetLinkLoad(p.link, 0)
}

// oracleWorld is one of the two networks TestLazyMatchesEager drives with
// the same schedule: lazy processes under a Controller, or eager ones
// under the equivalent start/stop bookkeeping.
type oracleWorld struct {
	eng     *simclock.Engine
	fl      *fluid.Network
	links   []*fluid.Link
	rngs    []*rand.Rand // one stream per loaded link, reused across restarts
	flows   []*fluid.Flow
	stopAll func()
	restart func()
	running bool
	// procValue reads link i's process as its own accessor reports it
	// (Load for AR(1), Bad for on/off); nil for the unloaded link.
	procValue []func() float64
	obs       []uint64
}

const oracleLinks = 6

// newOracleWorld builds six links: even ones carry AR(1) processes with
// short intervals, odd ones on/off processes, and the last none.
func newOracleWorld(seed int64, lazy bool) *oracleWorld {
	w := &oracleWorld{eng: simclock.NewEngine()}
	w.fl = fluid.New(w.eng)
	seeds := rand.New(rand.NewSource(seed))
	arCfg := Config{MeanLoad: 0.5, Burstiness: 1, Interval: 2, Alpha: 0.8}
	ooCfg := OnOffConfig{GoodLoad: 0.1, BadLoad: 0.9, MeanGood: 3, MeanBad: 2}
	c := NewController()
	var eagerStart []func() eagerStopper
	var eagerProcs []eagerStopper
	w.procValue = make([]func() float64, oracleLinks)
	for i := 0; i < oracleLinks; i++ {
		l := w.fl.AddLink(fmt.Sprintf("l%d", i), 50+25*float64(i), 0.001)
		w.links = append(w.links, l)
		if i == oracleLinks-1 {
			continue
		}
		rng := rand.New(rand.NewSource(seeds.Int63()))
		w.rngs = append(w.rngs, rng)
		i := i
		switch {
		case lazy && i%2 == 0:
			c.Attach(w.fl, l, arCfg, rng)
			w.procValue[i] = func() float64 { return c.procs[i].(*Process).Load() }
		case lazy:
			c.AttachOnOff(w.fl, l, ooCfg, rng)
			w.procValue[i] = func() float64 { return b2f(c.procs[i].(*OnOffProcess).Bad()) }
		case i%2 == 0:
			eagerStart = append(eagerStart, func() eagerStopper { return attachEager(w.fl, l, arCfg, rng) })
			w.procValue[i] = func() float64 { return eagerProcs[i].(*eagerProcess).load }
		default:
			eagerStart = append(eagerStart, func() eagerStopper { return attachEagerOnOff(w.fl, l, ooCfg, rng) })
			w.procValue[i] = func() float64 { return b2f(eagerProcs[i].(*eagerOnOff).bad) }
		}
	}
	if lazy {
		w.stopAll, w.restart = c.StopAll, c.Restart
	} else {
		start := func() {
			eagerProcs = eagerProcs[:0]
			for _, s := range eagerStart {
				eagerProcs = append(eagerProcs, s())
			}
		}
		start()
		w.stopAll = func() {
			for _, p := range eagerProcs {
				p.Stop()
			}
		}
		w.restart = start
	}
	w.running = true
	return w
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (w *oracleWorld) observe(xs ...float64) {
	for _, x := range xs {
		w.obs = append(w.obs, math.Float64bits(x))
	}
}

// observeLink records what every exported read of link i says.
func (w *oracleWorld) observeLink(i int) {
	l := w.links[i]
	w.observe(l.Load(), l.Available(), l.Utilization())
}

// oracleOp is one step of a schedule; its parameters are drawn once, so
// both worlds replay exactly the same step.
type oracleOp struct {
	name string
	do   func(w *oracleWorld)
}

// randomPath picks one to three distinct links in random order.
func randomPath(r *rand.Rand) []int {
	perm := r.Perm(oracleLinks)
	return perm[:1+r.Intn(3)]
}

func (w *oracleWorld) path(idx []int) []*fluid.Link {
	out := make([]*fluid.Link, len(idx))
	for i, j := range idx {
		out[i] = w.links[j]
	}
	return out
}

// startFlow starts a flow; when follow is non-nil, the flow's completion
// starts a second one from inside the simulation.
func (w *oracleWorld) startFlow(path []int, bytes, cap float64, follow []int) {
	opts := fluid.FlowOpts{RateCap: cap}
	if follow != nil {
		opts.OnComplete = func(*fluid.Flow) {
			w.flows = append(w.flows, w.fl.StartFlow(w.path(follow), bytes/2, fluid.FlowOpts{}))
		}
	}
	w.flows = append(w.flows, w.fl.StartFlow(w.path(path), bytes, opts))
}

// randomSchedule draws n steps: time advances, flow starts, cancels,
// kills and cap changes, external load writes (SetLinkState-style 1 and 0
// among them, some from inside the simulation), reads through every
// accessor, and StopAll/Restart.
func randomSchedule(r *rand.Rand, n int) []oracleOp {
	ops := make([]oracleOp, 0, n)
	add := func(name string, do func(w *oracleWorld)) { ops = append(ops, oracleOp{name, do}) }
	for len(ops) < n {
		switch k := r.Intn(20); {
		case k < 5:
			dt := simclock.Duration(r.ExpFloat64() * 4)
			add(fmt.Sprintf("advance %v", dt), func(w *oracleWorld) { w.eng.Advance(dt) })
		case k < 8:
			path, bytes := randomPath(r), 50+r.Float64()*2000
			cap := 0.0
			if r.Intn(3) == 0 {
				cap = 5 + r.Float64()*60
			}
			var follow []int
			if r.Intn(3) == 0 {
				follow = randomPath(r)
			}
			add(fmt.Sprintf("start %v %v cap %v then %v", path, bytes, cap, follow), func(w *oracleWorld) {
				w.startFlow(path, bytes, cap, follow)
			})
		case k == 8:
			pick, kill := r.Int(), r.Intn(2) == 0
			add(fmt.Sprintf("cancel #%d kill=%v", pick, kill), func(w *oracleWorld) {
				if len(w.flows) == 0 {
					return
				}
				f := w.flows[pick%len(w.flows)]
				if kill {
					w.fl.KillFlow(f)
				} else {
					w.fl.CancelFlow(f)
				}
			})
		case k == 9:
			pick, cap := r.Int(), r.Float64()*80
			add(fmt.Sprintf("cap #%d %v", pick, cap), func(w *oracleWorld) {
				if len(w.flows) > 0 {
					w.fl.SetFlowCap(w.flows[pick%len(w.flows)], cap)
				}
			})
		case k < 12:
			link, frac := r.Intn(oracleLinks), r.Float64()
			switch r.Intn(4) {
			case 0:
				frac = 1 // a link going down
			case 1:
				frac = 0 // and coming back up
			}
			if r.Intn(3) == 0 {
				dt := simclock.Duration(r.Float64() * 6)
				add(fmt.Sprintf("at +%v load l%d %v", dt, link, frac), func(w *oracleWorld) {
					w.eng.After(dt, func() {
						w.fl.SetLinkLoad(w.links[link], frac)
						w.observeLink(link)
					})
				})
				continue
			}
			add(fmt.Sprintf("load l%d %v", link, frac), func(w *oracleWorld) { w.fl.SetLinkLoad(w.links[link], frac) })
		case k < 15:
			link := r.Intn(oracleLinks)
			add(fmt.Sprintf("read l%d", link), func(w *oracleWorld) { w.observeLink(link) })
		case k < 17:
			link := r.Intn(oracleLinks - 1)
			add(fmt.Sprintf("read process l%d", link), func(w *oracleWorld) { w.observe(w.procValue[link]()) })
		case k == 17:
			add("rates", func(w *oracleWorld) {
				for _, f := range w.flows {
					w.observe(f.Rate(), w.fl.Remaining(f))
				}
			})
		default:
			add("stopall/restart", func(w *oracleWorld) {
				if w.running {
					w.stopAll()
				} else {
					w.restart()
				}
				w.running = !w.running
			})
		}
	}
	return ops
}

// TestLazyMatchesEager drives a lazy and an eager world through the same
// seeded random schedules and requires bit-identical observations: every
// link load, available capacity and utilization read, every process
// value, every flow rate and remainder, the reallocation count, each
// flow's finish time, and where each link's RNG stream stands once all
// processes have stopped. A lazy process stopped while dormant draws its
// owed re-samples only when read, so each process is read through its
// accessor before its stream is compared.
func TestLazyMatchesEager(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := randomSchedule(r, 120)
		lazy, eager := newOracleWorld(seed, true), newOracleWorld(seed, false)
		for i, op := range ops {
			op.do(lazy)
			op.do(eager)
			if len(lazy.obs) != len(eager.obs) {
				t.Fatalf("seed %d op %d (%s): %d observations lazy, %d eager", seed, i, op.name, len(lazy.obs), len(eager.obs))
			}
			for j := range lazy.obs {
				if lazy.obs[j] != eager.obs[j] {
					t.Fatalf("seed %d op %d (%s): observation %d = %v lazy, %v eager", seed, i, op.name, j,
						math.Float64frombits(lazy.obs[j]), math.Float64frombits(eager.obs[j]))
				}
			}
			lazy.obs, eager.obs = lazy.obs[:0], eager.obs[:0]
			if lazy.eng.Now() != eager.eng.Now() {
				t.Fatalf("seed %d op %d (%s): clocks %v lazy, %v eager", seed, i, op.name, lazy.eng.Now(), eager.eng.Now())
			}
		}
		for _, w := range []*oracleWorld{lazy, eager} {
			if w.running {
				w.stopAll()
			}
			w.eng.Run()
		}
		if lazy.fl.Reallocations != eager.fl.Reallocations {
			t.Fatalf("seed %d: %d reallocations lazy, %d eager", seed, lazy.fl.Reallocations, eager.fl.Reallocations)
		}
		if len(lazy.flows) != len(eager.flows) {
			t.Fatalf("seed %d: %d flows lazy, %d eager", seed, len(lazy.flows), len(eager.flows))
		}
		for i, f := range lazy.flows {
			g := eager.flows[i]
			if f.State() != g.State() || f.FinishedAt() != g.FinishedAt() {
				t.Fatalf("seed %d flow %d: state %v at %v lazy, %v at %v eager", seed, i, f.State(), f.FinishedAt(), g.State(), g.FinishedAt())
			}
		}
		for _, w := range []*oracleWorld{lazy, eager} {
			for _, value := range w.procValue {
				if value != nil {
					value()
				}
			}
		}
		for i := range lazy.rngs {
			if a, b := lazy.rngs[i].Int63(), eager.rngs[i].Int63(); a != b {
				t.Fatalf("seed %d: link %d RNG stream lazy and eager diverged after stop", seed, i)
			}
		}
	}
}

// countingSource counts the values a rand.Rand draws from it.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source.Int63()
}

// TestStopDrawsNothingUntilRestart pins when a dormant process pays for
// the re-samples it skipped: not at StopAll, but at Restart, where it
// draws exactly what an eager process stopped at the same time and
// re-attached draws, and continues with the same values.
func TestStopDrawsNothingUntilRestart(t *testing.T) {
	arCfg := Config{MeanLoad: 0.5, Burstiness: 1, Interval: 2, Alpha: 0.8}
	ooCfg := OnOffConfig{GoodLoad: 0.1, BadLoad: 0.9, MeanGood: 3, MeanBad: 2}
	for _, kind := range []string{"ar1", "onoff"} {
		world := func() (*simclock.Engine, *fluid.Network, *fluid.Link, *countingSource, *rand.Rand) {
			eng, fl, l := setup()
			src := &countingSource{Source: rand.NewSource(7)}
			return eng, fl, l, src, rand.New(src)
		}

		eng, fl, l, src, rng := world()
		c := NewController()
		var value func() float64
		if kind == "ar1" {
			p := c.Attach(fl, l, arCfg, rng)
			value = p.Load
		} else {
			p := c.AttachOnOff(fl, l, ooCfg, rng)
			value = func() float64 { return b2f(p.Bad()) }
		}
		eng.Advance(1000) // idle: the process goes dormant at its first re-sample
		before := src.draws
		c.StopAll()
		if src.draws != before {
			t.Errorf("%s: StopAll drew %d values on an idle link, want 0", kind, src.draws-before)
		}
		c.Restart()

		eEng, eFl, eL, eSrc, eRng := world()
		var eValue func() float64
		start := func() eagerStopper {
			if kind == "ar1" {
				p := attachEager(eFl, eL, arCfg, eRng)
				eValue = func() float64 { return p.load }
				return p
			}
			p := attachEagerOnOff(eFl, eL, ooCfg, eRng)
			eValue = func() float64 { return b2f(p.bad) }
			return p
		}
		eager := start()
		eEng.Advance(1000)
		eager.Stop()
		start()

		if src.draws != eSrc.draws {
			t.Errorf("%s: %d values drawn by Restart, eager oracle %d", kind, src.draws, eSrc.draws)
		}
		if a, b := value(), eValue(); a != b {
			t.Errorf("%s: value after Restart %v, eager oracle %v", kind, a, b)
		}
		eng.Advance(50)
		eEng.Advance(50)
		if a, b := l.Load(), eL.Load(); a != b {
			t.Errorf("%s: link load 50 s after Restart %v, eager oracle %v", kind, a, b)
		}
		if a, b := rng.Int63(), eRng.Int63(); a != b {
			t.Errorf("%s: streams diverged after Restart", kind)
		}
	}
}
