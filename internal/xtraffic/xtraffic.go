// Package xtraffic generates background load on links: a seeded,
// autocorrelated (AR(1)) load process re-sampled at a fixed interval,
// standing in for the cross-traffic the paper's transfers competed with.
//
// Cross-traffic is what turns the paper's clean bandwidth story into the
// noisy one in Table IV: run-to-run variance, overlapping ±1σ error
// bars, and the file-size-dependent exceptions in Figs 8–9 all come from
// the foreground transfer sampling this process at different times.
//
// Processes are lazy. Only a link that carries a foreground flow needs
// its re-samples on time, so a re-sample that finds its link idle queues
// no next event: the process goes dormant. Package fluid asks an idle
// link's process to Sync before anything can see the load (a read, an
// external SetLinkLoad, a flow starting), and Sync draws the re-samples
// that fell due meanwhile from the process's own RNG, in the order the
// events would have drawn them. Each process owns its stream and an
// idle link's load is unseen between syncs, so every load a flow meets,
// and every output, is what a process re-sampled by events at every
// interval would give.
//
// Stopping is lazy too. A dormant process that is stopped draws nothing:
// it owes the re-samples due by its stop time, and draws them when it is
// restarted or its value is read (Load, Bad). A world closed after its
// last workload never draws them at all.
package xtraffic

import (
	"fmt"
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
	source
	cfg   Config
	sigma float64 // noise amplitude, fixed by cfg
	rng   *rand.Rand
	load  float64
}

// Attach starts a load process on link, seeding the link's load
// immediately and re-sampling every Interval until Stop. The rng is
// owned by the process afterwards; give each live process its own, since
// a dormant process draws its skipped re-samples only when it syncs. A
// link carries at most one live process: attaching a second panics.
func Attach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *Process {
	checkArgs(fl, link, rng)
	mustFinite(cfg, cfg.MeanLoad, cfg.Burstiness, cfg.Interval, cfg.Alpha)
	p := &Process{source: source{fl: fl, link: link}, cfg: cfg.withDefaults(), rng: rng}
	p.sigma = p.cfg.Burstiness * math.Max(p.cfg.MeanLoad, 0.05) * 0.6
	p.m = p
	p.restart()
	return p
}

// restart is Attach's work after the allocation: it seeds the link's
// load from the stationary distribution and starts re-sampling.
// Controller.Restart calls it to reuse a stopped process, after the
// re-samples the process owes from before its stop.
func (p *Process) restart() {
	p.settle()
	p.claim()
	p.load = p.sampleStationary()
	p.start()
}

// sampleStationary draws an initial load from around the stationary
// distribution so transfers starting at t=0 see typical conditions.
func (p *Process) sampleStationary() float64 {
	return clampLoad(p.cfg.MeanLoad + p.noise()/math.Sqrt(1-p.cfg.Alpha*p.cfg.Alpha))
}

func (p *Process) noise() float64 {
	return p.rng.NormFloat64() * p.sigma
}

// clampLoad bounds a load to [0, 0.95]. The builtins follow math.Max and
// math.Min on NaN and signed zeros, and inline.
func clampLoad(x float64) float64 {
	return max(0, min(0.95, x))
}

// step draws one AR(1) re-sample.
func (p *Process) step() {
	c := p.cfg
	p.load = clampLoad(c.MeanLoad + c.Alpha*(p.load-c.MeanLoad) + p.noise())
}

// interval draws the time to the next re-sample. The interval is
// slightly jittered so many processes never re-sample in lockstep, which
// would create artificial global synchronization.
func (p *Process) interval() float64 {
	return p.cfg.Interval * (0.9 + 0.2*p.rng.Float64())
}

func (p *Process) value() float64 { return p.load }

// Load returns the process's current load fraction, syncing a dormant
// process first; a stopped one reports the load it had at its stop.
func (p *Process) Load() float64 {
	p.Sync()
	return p.load
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
	source
	cfg OnOffConfig
	rng *rand.Rand
	bad bool
}

// AttachOnOff starts a two-state process on link. The initial state is
// drawn from the stationary distribution. The rng and link rules of
// Attach apply.
func AttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *OnOffProcess {
	checkArgs(fl, link, rng)
	mustFinite(cfg, cfg.GoodLoad, cfg.BadLoad, cfg.MeanGood, cfg.MeanBad)
	if cfg.MeanGood <= 0 || cfg.MeanBad <= 0 {
		panic("xtraffic: OnOff holding times must be positive")
	}
	p := &OnOffProcess{source: source{fl: fl, link: link}, cfg: cfg, rng: rng}
	p.m = p
	p.restart()
	return p
}

// restart draws the initial state and starts flipping, as Process.restart.
func (p *OnOffProcess) restart() {
	p.settle()
	p.claim()
	pBad := p.cfg.MeanBad / (p.cfg.MeanGood + p.cfg.MeanBad)
	p.bad = p.rng.Float64() < pBad
	p.start()
}

// step flips the state.
func (p *OnOffProcess) step() { p.bad = !p.bad }

// interval draws the holding time of the current state.
func (p *OnOffProcess) interval() float64 {
	mean := p.cfg.MeanGood
	if p.bad {
		mean = p.cfg.MeanBad
	}
	return p.rng.ExpFloat64() * mean
}

func (p *OnOffProcess) value() float64 {
	if p.bad {
		return clampLoad(p.cfg.BadLoad)
	}
	return clampLoad(p.cfg.GoodLoad)
}

// Bad reports whether the link is currently in a congestion episode,
// syncing a dormant process first; a stopped one reports its state at
// its stop.
func (p *OnOffProcess) Bad() bool {
	p.Sync()
	return p.bad
}

// model is one process's random stream: step draws a re-sample (an
// AR(1) step or a state flip), interval the virtual seconds to the next
// one, and value is the link load the process holds now.
type model interface {
	step()
	interval() float64
	value() float64
}

// source schedules a model's re-samples on its link and is the link's
// fluid.LoadSource. While the link carries a flow it re-arms its one
// event at every re-sample. A re-sample that finds the link idle queues
// nothing and leaves the process dormant; Sync then draws the re-samples
// that fell due meanwhile, in stream order, and re-arms. A process
// stopped while dormant stays dormant: it owes the re-samples due by
// stopAt until settle draws them.
type source struct {
	fl      *fluid.Network
	link    *fluid.Link
	m       model
	due     simclock.Time   // time of the next re-sample
	next    *simclock.Event // the one re-sample event, re-armed in place
	dormant bool            // no event queued: the link was idle at the last re-sample
	stopped bool
	stopAt  simclock.Time // when a dormant process was stopped
}

func checkArgs(fl *fluid.Network, link *fluid.Link, rng *rand.Rand) {
	if fl == nil || link == nil || rng == nil {
		panic("xtraffic: nil argument")
	}
}

// mustFinite panics unless every field of cfg is a finite number:
// withDefaults' range checks are all false on NaN and would let it
// through to fail later, or never.
func mustFinite(cfg any, fields ...float64) {
	for _, v := range fields {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("xtraffic: non-finite config %+v", cfg))
		}
	}
}

// claim panics if the link already has a live load process.
func (s *source) claim() {
	if s.link.Source() != nil {
		panic(fmt.Sprintf("xtraffic: link %q already has a live load process; Stop it before attaching another", s.link.Name))
	}
}

// start writes the model's initial load, takes over the link's load and
// queues the first re-sample. That one is queued whether or not the link
// carries flows, so the process's one event is allocated when it is
// attached and re-armed after a restart where it can be (a dormant
// process's event has fired; an awake one's was cancelled by Stop).
func (s *source) start() {
	s.stopped = false
	s.fl.SetLinkLoad(s.link, s.m.value())
	s.link.SetSource(s)
	eng := s.fl.Engine()
	s.due = eng.Now() + simclock.Time(s.m.interval())
	if !eng.Rearm(s.next, s.due) {
		s.next = eng.Schedule(s.due, s.fire)
	}
}

// fire is the re-sample event.
func (s *source) fire() {
	s.m.step()
	s.fl.SetLinkLoad(s.link, s.m.value())
	s.due += simclock.Time(s.m.interval())
	s.arm()
}

// arm queues the next re-sample if the link carries flows and goes
// dormant otherwise.
func (s *source) arm() {
	if s.link.NumFlows() == 0 {
		s.dormant = true
		return
	}
	s.fl.Engine().Rearm(s.next, s.due)
}

// catchUp draws every re-sample due by t and reports whether there
// was one. A re-sample due exactly at t counts as already run.
func (s *source) catchUp(t simclock.Time) bool {
	drew := false
	for s.due <= t {
		s.m.step()
		s.due += simclock.Time(s.m.interval())
		drew = true
	}
	return drew
}

// Sync wakes a dormant process: it catches up, writes the load only if
// it drew a re-sample (so an external write made since the last one
// stands), and re-arms. Fluid calls it before the idle link's load is
// read or written and before a flow starts on the link. On a stopped
// process, which no link syncs, Load and Bad call it to settle.
func (s *source) Sync() {
	if !s.dormant {
		return
	}
	if s.stopped {
		s.settle()
		return
	}
	drew := s.catchUp(s.fl.Engine().Now())
	s.dormant = false // before the write, which syncs the link again
	if drew {
		s.fl.SetLinkLoad(s.link, s.m.value())
	}
	s.fl.Engine().Rearm(s.next, s.due)
}

// Stop halts the process and releases the link back to zero load. A
// dormant process draws nothing now: it owes the re-samples due by the
// stop time, which restart or a read of its value draws first, so a
// process restarted on the same rng continues the stream where it would
// be.
func (s *source) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.dormant {
		s.stopAt = s.fl.Engine().Now() // the event has fired: nothing to cancel
	} else {
		s.fl.Engine().Cancel(s.next)
	}
	if s.link.Source() == s {
		s.link.SetSource(nil)
	}
	s.fl.SetLinkLoad(s.link, 0)
}

// settle draws the re-samples a process stopped while dormant owes, in
// stream order. It does nothing for a running or settled process.
func (s *source) settle() {
	if s.stopped && s.dormant {
		s.catchUp(s.stopAt)
		s.dormant = false
	}
}

// Controller manages the cross-traffic processes of one experiment run
// so they can be torn down together when the foreground transfer ends,
// releasing every link's load and queuing no more re-samples, and
// restarted for the next run.
type Controller struct {
	procs   []process
	stopped bool
}

type process interface {
	Stop()
	restart()
}

// NewController returns an empty controller.
func NewController() *Controller { return &Controller{} }

// Attach starts an AR(1) process and tracks it for StopAll/Restart.
func (c *Controller) Attach(fl *fluid.Network, link *fluid.Link, cfg Config, rng *rand.Rand) *Process {
	p := Attach(fl, link, cfg, rng)
	c.procs = append(c.procs, p)
	return p
}

// AttachOnOff starts a two-state process and tracks it.
func (c *Controller) AttachOnOff(fl *fluid.Network, link *fluid.Link, cfg OnOffConfig, rng *rand.Rand) *OnOffProcess {
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

// Restart starts every tracked process again after StopAll, as
// re-attaching it would, continuing each link's seeded random sequence:
// a process stopped while dormant first draws the re-samples it owes.
// The processes (and the events of those that were dormant) are reused,
// so a restart allocates next to nothing. It is a no-op while running.
func (c *Controller) Restart() {
	if !c.stopped {
		return
	}
	for _, p := range c.procs {
		p.restart()
	}
	c.stopped = false
}

// Len returns the number of tracked processes.
func (c *Controller) Len() int { return len(c.procs) }
