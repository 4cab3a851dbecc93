// Package xtraffic generates background load on links: a seeded,
// autocorrelated (AR(1)) load process re-sampled at a fixed interval,
// standing in for the cross-traffic the paper's transfers competed with.
//
// Cross-traffic is what turns the paper's clean bandwidth story into the
// noisy one in Table IV: run-to-run variance, overlapping ±1σ error
// bars, and the file-size-dependent exceptions in Figs 8–9 all come from
// the foreground transfer sampling this process at different times.
package xtraffic

import (
	"math"
	"math/rand"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

// Config shapes one link's background-load process.
type Config struct {
	// MeanLoad is the long-run average fraction of link capacity consumed
	// by cross-traffic, in [0, 0.95].
	MeanLoad float64
	// Burstiness in [0, 1] scales the noise amplitude around MeanLoad.
	// Zero gives a constant load; one gives swings comparable to the mean.
	Burstiness float64
	// Interval is the virtual-time spacing of re-samples in seconds.
	// Zero defaults to 5s.
	Interval float64
	// Alpha is the AR(1) autocorrelation in [0, 1). Zero defaults to 0.7:
	// congestion episodes persist for a few intervals, as real ones do.
	Alpha float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.7
	}
	if c.Alpha >= 1 {
		c.Alpha = 0.99
	}
	if c.MeanLoad < 0 {
		c.MeanLoad = 0
	}
	if c.MeanLoad > 0.95 {
		c.MeanLoad = 0.95
	}
	if c.Burstiness < 0 {
		c.Burstiness = 0
	}
	if c.Burstiness > 1 {
		c.Burstiness = 1
	}
	return c
}

// Process is one link's running load generator.
type Process struct {
	fl      *fluid.Network
	link    *fluid.Link
	cfg     Config
	rng     *rand.Rand
	load    float64
	stopped bool
	next    *simclock.Event
}

// Attach starts a load process on link, seeding the link's load
// immediately and re-sampling every Interval until Stop. The rng is
// owned by the process afterwards; give each process its own.
func Attach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *Process {
	if fl == nil || link == nil || rng == nil {
		panic("xtraffic: nil argument")
	}
	p := &Process{fl: fl, link: link, cfg: cfg.withDefaults(), rng: rng}
	p.load = p.sampleStationary()
	fl.SetLinkLoad(link, p.load)
	p.schedule()
	return p
}

// sampleStationary draws an initial load from around the stationary
// distribution so transfers starting at t=0 see typical conditions.
func (p *Process) sampleStationary() float64 {
	return clampLoad(p.cfg.MeanLoad + p.noise()/math.Sqrt(1-p.cfg.Alpha*p.cfg.Alpha))
}

func (p *Process) noise() float64 {
	sigma := p.cfg.Burstiness * math.Max(p.cfg.MeanLoad, 0.05) * 0.6
	return p.rng.NormFloat64() * sigma
}

func clampLoad(x float64) float64 {
	return math.Max(0, math.Min(0.95, x))
}

// schedule queues the next re-sample. A running process re-arms its
// fired event in place; only a just-attached one schedules a new event.
func (p *Process) schedule() {
	eng := p.fl.Engine()
	// Slightly jitter the interval so many processes never re-sample in
	// lockstep, which would create artificial global synchronization.
	d := p.cfg.Interval * (0.9 + 0.2*p.rng.Float64())
	if !eng.Rearm(p.next, eng.Now()+simclock.Time(d)) {
		p.next = eng.After(d, p.step)
	}
}

func (p *Process) step() {
	if p.stopped {
		return
	}
	c := p.cfg
	p.load = clampLoad(c.MeanLoad + c.Alpha*(p.load-c.MeanLoad) + p.noise())
	p.fl.SetLinkLoad(p.link, p.load)
	p.schedule()
}

// Load returns the process's current load fraction.
func (p *Process) Load() float64 { return p.load }

// Stop halts the process and releases the link back to zero load.
func (p *Process) Stop() {
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

// OnOffConfig shapes a two-state Markov-modulated load process: the link
// alternates between a quiet state and a congestion episode, with
// exponentially distributed holding times. Long-transfer runs inevitably
// straddle episodes while short ones often dodge them — the mechanism
// behind the paper's size-dependent detour benefit and the large error
// bars from Purdue (Table IV, Figs 8–9).
type OnOffConfig struct {
	// GoodLoad/BadLoad are the cross-traffic fractions in each state.
	GoodLoad, BadLoad float64
	// MeanGood/MeanBad are the mean state holding times in seconds.
	MeanGood, MeanBad float64
}

// OnOffProcess is a running two-state load generator.
type OnOffProcess struct {
	fl      *fluid.Network
	link    *fluid.Link
	cfg     OnOffConfig
	rng     *rand.Rand
	bad     bool
	stopped bool
	next    *simclock.Event
}

// AttachOnOff starts a two-state process on link. The initial state is
// drawn from the stationary distribution.
func AttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *OnOffProcess {
	if fl == nil || link == nil || rng == nil {
		panic("xtraffic: nil argument")
	}
	if cfg.MeanGood <= 0 || cfg.MeanBad <= 0 {
		panic("xtraffic: OnOff holding times must be positive")
	}
	p := &OnOffProcess{fl: fl, link: link, cfg: cfg, rng: rng}
	pBad := cfg.MeanBad / (cfg.MeanGood + cfg.MeanBad)
	p.bad = rng.Float64() < pBad
	p.apply()
	p.schedule()
	return p
}

func (p *OnOffProcess) apply() {
	load := p.cfg.GoodLoad
	if p.bad {
		load = p.cfg.BadLoad
	}
	p.fl.SetLinkLoad(p.link, clampLoad(load))
}

// schedule queues the next state flip, re-arming in place as
// Process.schedule does.
func (p *OnOffProcess) schedule() {
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

func (p *OnOffProcess) step() {
	if p.stopped {
		return
	}
	p.bad = !p.bad
	p.apply()
	p.schedule()
}

// Bad reports whether the link is currently in a congestion episode.
func (p *OnOffProcess) Bad() bool { return p.bad }

// Stop halts the process and releases the link.
func (p *OnOffProcess) Stop() {
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

// Controller manages the cross-traffic processes of one experiment run
// so they can be torn down together when the foreground transfer ends
// (otherwise their re-sample events would keep the simulation alive
// forever) and restarted for the next run.
type Controller struct {
	starters []func() stopper
	procs    []stopper
	stopped  bool
}

type stopper interface{ Stop() }

// NewController returns an empty controller.
func NewController() *Controller { return &Controller{} }

// Attach starts an AR(1) process and tracks it for StopAll/Restart.
func (c *Controller) Attach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *Process {
	start := func() stopper { return Attach(fl, link, cfg, rng) }
	c.starters = append(c.starters, start)
	p := Attach(fl, link, cfg, rng)
	c.procs = append(c.procs, p)
	return p
}

// AttachOnOff starts a two-state process and tracks it.
func (c *Controller) AttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *OnOffProcess {
	start := func() stopper { return AttachOnOff(fl, link, cfg, rng) }
	c.starters = append(c.starters, start)
	p := AttachOnOff(fl, link, cfg, rng)
	c.procs = append(c.procs, p)
	return p
}

// StopAll stops every tracked process (so the event queue can drain
// between measurement phases).
func (c *Controller) StopAll() {
	for _, p := range c.procs {
		p.Stop()
	}
	c.stopped = true
}

// Restart re-attaches every tracked process after StopAll, continuing
// each link's seeded random sequence. It is a no-op while running.
func (c *Controller) Restart() {
	if !c.stopped {
		return
	}
	c.procs = c.procs[:0]
	for _, start := range c.starters {
		c.procs = append(c.procs, start())
	}
	c.stopped = false
}

// Len returns the number of tracked processes.
func (c *Controller) Len() int { return len(c.procs) }
