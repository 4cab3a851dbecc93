// Package replay is the one driver behind every scheduler run: the
// churn, grayfail, pressure, telemetry, multipath, crashsafe and
// overload modes, the cmd/detourd daemon (one Spec built from its flags:
// the generated fleet trace, with and without the canned fault
// schedule), and any new scenario. A Spec declares one arm —
// seed, world options, fault schedule, a setup hook that sizes the world
// and wires observers, the scheduler Config, and an arrival trace — and
// Run builds the world, arms the faults, drives the fleet through a
// sched.Scheduler on the simulation executor, and returns an Outcome.
// A mode is a table of Specs (usually a control arm and a stack arm)
// plus the report that compares them; its Write function takes a writer
// and a seed, and `detourbench -experiment <mode>` prints it.
//
// Every run on one worker is byte-identical per seed and binary (more
// workers, as in a default detourd, interleave for real):
//   - the scheduler runs one worker unless the Spec asks for more
//     (sequential ⇒ deterministic);
//   - jobs due at the start are all submitted before the worker starts,
//     so enqueue order, journal record order and submit-time crash
//     points are fixed;
//   - later arrivals are fed at virtual-time boundaries: the simulation
//     executor offers the clock to the trace each time a call that
//     advances it returns (sched.SimExecutor.OnAdvance), so arrivals
//     interleave with service by virtual time, not by goroutine timing —
//     whatever the trace's shape, and whatever wrapper a Setup puts
//     between the scheduler and the executor;
//   - faults, convergence delays and the sampler are pure functions of
//     the virtual clock and the seeded RNGs;
//   - the report renderers iterate only sorted or fixed-order data.
//
// testdata/golden pins every deterministic mode's output, and
// cmd/detourbench's TestGolden compares it byte for byte; cmd/detourd's
// pins two one-worker daemon runs.
package replay

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"detournet/internal/bgppol"
	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// Spec declares one arm of a replay.
type Spec struct {
	// Seed drives the world, the fault injector's error streams, and
	// whatever trace the mode generates.
	Seed int64
	// World are the scenario build options.
	World []scenario.Option
	// Faults arms an injector over the world; empty arms none.
	Faults []faults.Spec
	// Setup, when set, sizes the world and wires the arm's observers
	// before the scheduler is built: quotas, staging caps, the journal
	// device, a health tracker, sampler probes. It may edit Env.Config.
	Setup func(*Env)
	// Config is the arm's scheduler configuration. The driver wires the
	// executor, planner, virtual clock and result collection, and runs
	// one worker when Workers is unset; Setup may override any of it.
	Config sched.Config
	// Fleet is the arrival trace, in arrival order.
	Fleet []Arrival
}

// Arrival is one job of the trace and the virtual time it is submitted.
type Arrival struct {
	At float64
	sched.Job
}

// Env is one arm's live world: handed to Spec.Setup before the
// scheduler exists, and kept in the Outcome after it stops.
type Env struct {
	World *scenario.World
	// Injector is nil when the Spec arms no faults.
	Injector *faults.Injector
	Exec     *sched.SimExecutor
	// Config is the scheduler configuration the arm runs with.
	Config sched.Config
	// Sampler, when Setup sets one, records time series on the virtual
	// clock.
	Sampler *telemetry.Sampler
	// Sched is nil during Setup: probes must read it lazily.
	Sched *sched.Scheduler
}

// Outcome is one arm's complete, deterministic result set.
type Outcome struct {
	Env
	// Fleet echoes the Spec's trace; Rejected are the jobs Submit
	// refused (backpressure, rate limits).
	Fleet    []Arrival
	Rejected []sched.Job
	// Results in completion order.
	Results []sched.Result
	Stats   sched.Stats
	// Transitions is the fault injector's log; Events the routing
	// plane's (withdraws and announces with their convergence horizons).
	Transitions []string
	Events      []bgppol.Event
	// VirtualSeconds is the simulated span of the whole run.
	VirtualSeconds float64
}

// Run builds the arm's world, arms its faults, and drives its fleet.
func Run(sp Spec) Outcome {
	w := scenario.Build(sp.Seed, sp.World...)
	var inj *faults.Injector
	if len(sp.Faults) > 0 {
		inj = faults.NewInjector(w, sp.Seed, sp.Faults...)
	}
	return drive(w, inj, sp)
}

// drive runs one scheduler incarnation of sp over an existing world —
// a fresh world from Run, or the world a crashed incarnation left
// behind.
func drive(w *scenario.World, inj *faults.Injector, sp Spec) Outcome {
	exec := sched.NewSimExecutor(w)
	env := &Env{World: w, Injector: inj, Exec: exec, Config: sp.Config}
	cfg := &env.Config
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	cfg.Executor, cfg.Planner, cfg.Sleep, cfg.Now = exec, exec, exec.SleepVirtual, exec.VirtualNow
	// A killed control plane is dead: nothing it produces is observed,
	// and nothing more is submitted to it. The journal is the witness.
	killed := func() bool { return cfg.Journal != nil && cfg.Journal.Killed() }
	// Closing the executor ends the world. A killed incarnation closes
	// nothing: its world survives the crash, and the incarnation that
	// restarts on it closes it.
	defer func() {
		if !killed() {
			exec.Close()
		}
	}()
	var mu sync.Mutex
	var results []sched.Result
	cfg.OnResult = func(r sched.Result) {
		if killed() {
			return
		}
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	if sp.Setup != nil {
		sp.Setup(env)
	}

	s := sched.New(*cfg)
	env.Sched = s
	if cfg.Reroute {
		// Push-based invalidation: routing events reach the route cache
		// the instant they happen instead of waiting out TTLs.
		w.RouteBus.Subscribe(func(ev bgppol.Event) {
			s.RouteEvent(sched.RouteEvent{
				Withdraw: ev.Kind == bgppol.EventWithdraw,
				DomainA:  ev.DomainA, DomainB: ev.DomainB,
				FromNode: ev.FromNode, ToNode: ev.ToNode,
				At: ev.At, ConvergedBy: ev.ConvergedBy,
			})
		})
	}
	// feedMu guards the trace cursor: with more than one worker, workers
	// feed concurrently.
	var feedMu sync.Mutex
	var rejected []sched.Job
	next := 0
	feed := func(now float64) {
		feedMu.Lock()
		defer feedMu.Unlock()
		for next < len(sp.Fleet) && sp.Fleet[next].At <= now && !killed() {
			j := sp.Fleet[next].Job
			next++
			if err := s.Submit(j); err != nil {
				rejected = append(rejected, j)
			}
		}
	}
	// upcoming is the next arrival's time, or -1 once the trace is
	// exhausted or the control plane died.
	upcoming := func() float64 {
		feedMu.Lock()
		defer feedMu.Unlock()
		if next >= len(sp.Fleet) || killed() {
			return -1
		}
		return sp.Fleet[next].At
	}
	exec.OnAdvance(feed)
	feed(exec.VirtualNow())
	s.Start()
	for {
		s.Drain()
		at := upcoming()
		if at < 0 {
			break
		}
		// The sleep feeds through OnAdvance, also when at is already due.
		exec.SleepVirtual(at - exec.VirtualNow())
	}
	st := s.Stats()
	s.Close()

	o := Outcome{
		Env: *env, Fleet: sp.Fleet, Rejected: rejected,
		Results: results, Stats: st,
		VirtualSeconds: exec.VirtualNow(),
	}
	if inj != nil {
		o.Transitions = inj.Transitions()
	}
	if w.Routing != nil {
		o.Events = w.Routing.Events()
	}
	return o
}

// fleet is a closed-loop trace: n jobs, all due at the start.
func fleet(n int, job func(i int) sched.Job) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i].Job = job(i)
	}
	return out
}

// Arrivals replays a generated fleet trace open-loop: each job arrives
// at its generated time.
func Arrivals(trace []workload.FleetJob) []Arrival {
	out := make([]Arrival, len(trace))
	for i, fj := range trace {
		out[i] = Arrival{At: fj.At, Job: sched.Job{
			Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider,
			Name: fj.Name, Size: fj.Size, Priority: fj.Priority, Deadline: fj.Deadline,
		}}
	}
	return out
}

// Done counts successful results.
func (o Outcome) Done() int {
	n := 0
	for _, r := range o.Results {
		if r.Err == nil {
			n++
		}
	}
	return n
}

// Goodput is delivered bytes per virtual second across the whole run.
func (o Outcome) Goodput() float64 {
	if o.VirtualSeconds <= 0 {
		return 0
	}
	var bytes float64
	for _, r := range o.Results {
		if r.Err == nil {
			bytes += r.Job.Size
		}
	}
	return bytes / o.VirtualSeconds
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteRoutes prints one row per route of st — jobs, bytes, throughput
// — in route order, each prefixed by indent.
func WriteRoutes(out io.Writer, indent string, st sched.Stats) {
	for _, r := range sortedKeys(st.PerRoute) {
		rs := st.PerRoute[r]
		fmt.Fprintf(out, "%s%-16s %4d jobs  %8.1f MB  %6.2f MB/s\n",
			indent, r, rs.Jobs, rs.Bytes/1e6, rs.Throughput()/1e6)
	}
}

// WritePeaks prints st's per-provider and per-DTN concurrency
// high-water marks, each prefixed by indent.
func WritePeaks(out io.Writer, indent string, st sched.Stats) {
	for _, p := range sortedKeys(st.ProviderPeak) {
		fmt.Fprintf(out, "%sprovider %-12s peak %d\n", indent, p, st.ProviderPeak[p])
	}
	for _, d := range sortedKeys(st.DTNPeak) {
		fmt.Fprintf(out, "%sdtn      %-12s peak %d\n", indent, d, st.DTNPeak[d])
	}
}

// WriteBreakers prints st's per-route circuit-breaker states in route
// order, each prefixed by indent.
func WriteBreakers(out io.Writer, indent string, st sched.Stats) {
	for _, k := range sortedKeys(st.Breakers) {
		fmt.Fprintf(out, "%s%-32s %s\n", indent, k, st.Breakers[k])
	}
}

// Listing is the provider-side truth: sorted "provider name size md5"
// lines. IDs and timestamps are left out on purpose, so two runs that
// commit the same bytes list identically.
func (o Outcome) Listing() []string {
	var out []string
	for _, p := range sortedKeys(o.World.Services) {
		for _, ob := range o.World.Services[p].Store.List() {
			out = append(out, fmt.Sprintf("%s %s %.0f %s", p, ob.Name, ob.Size, ob.MD5))
		}
	}
	return out
}

// Check verifies the invariants every replay must hold, whatever its
// faults: exactly one Result per submitted job, at most one
// materializing commit per fleet object on every provider, no store
// above its quota, and a typed cause (sched.Classify) on every failure.
// Deadline expiries and sheds are refusals, not failures.
func (o Outcome) Check() error {
	rejected := make(map[string]bool, len(o.Rejected))
	for _, j := range o.Rejected {
		rejected[j.Name] = true
	}
	seen := make(map[string]int, len(o.Results))
	for _, r := range o.Results {
		seen[r.Job.Name]++
		if r.Err != nil && !errors.Is(r.Err, sched.ErrDeadline) && !errors.Is(r.Err, sched.ErrShed) &&
			sched.Classify(r.Err) == sched.FailUnknown {
			return fmt.Errorf("%s failed untyped: %v", r.Job.Name, r.Err)
		}
	}
	for _, a := range o.Fleet {
		if n := seen[a.Name]; n != 1 && !rejected[a.Name] {
			return fmt.Errorf("%s has %d results, want 1", a.Name, n)
		}
	}
	if submitted := len(o.Fleet) - len(o.Rejected); len(o.Results) != submitted {
		return fmt.Errorf("%d results for %d submitted jobs", len(o.Results), submitted)
	}
	for _, p := range sortedKeys(o.World.Services) {
		st := o.World.Services[p].Store
		if st.Quota > 0 && st.Used() > st.Quota {
			return fmt.Errorf("%s holds %.0f B over its %.0f B quota", p, st.Used(), st.Quota)
		}
		for _, a := range o.Fleet {
			if n := st.Commits(a.Name); n > 1 {
				return fmt.Errorf("%s committed %s %d times", p, a.Name, n)
			}
		}
	}
	return nil
}
