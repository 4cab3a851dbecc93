package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"detournet/goldentest"
	"detournet/internal/experiments"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// TestDeterminism: every mode's report is byte-identical across two
// runs of one seed — with the extra surfaces each mode promises stable
// (telemetry's JSON and CSV dumps, multipath's per-path chunk
// assignments) — and the churn storm and the overload trace actually
// depend on their seeds.
func TestDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		render func(b *strings.Builder, seed int64)
		// differs, when set, is a seed whose report must differ.
		differs int64
		slow    bool
	}{
		{name: "churn", seed: 2015, differs: 7, render: func(b *strings.Builder, seed int64) {
			WriteChurn(b, seed)
		}},
		{name: "grayfail", seed: 2015, render: func(b *strings.Builder, seed int64) {
			WriteGrayfail(b, seed)
		}},
		{name: "pressure", seed: 2015, render: func(b *strings.Builder, seed int64) {
			WritePressure(b, seed)
		}},
		{name: "multipath", seed: 2015, render: func(b *strings.Builder, seed int64) {
			o, pairs := Multipath(seed)
			churn := MultipathChurn(seed)
			writeMultipathReport(b, o, pairs, churn)
			for _, pr := range pairs {
				for _, p := range pr.Striped.Multipath.Paths {
					fmt.Fprintf(b, "%s->%s path %d chunks %v\n", pr.Client, pr.Provider, p.ID, p.Chunks)
				}
			}
			for _, p := range churn.Results[0].Multipath.Paths {
				fmt.Fprintf(b, "churn path %d chunks %v\n", p.ID, p.Chunks)
			}
		}},
		{name: "telemetry", seed: 7, render: func(b *strings.Builder, seed int64) {
			o := Telemetry(seed, true)
			writeTelemetryReport(b, o)
			snap := o.Config.Telemetry.Snapshot()
			if err := snap.WritePrometheus(b); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "overload", seed: 7, differs: 8, render: func(b *strings.Builder, seed int64) {
			WriteOverload(b, seed)
		}},
		{name: "crashsafe", seed: 7, slow: true, render: func(b *strings.Builder, seed int64) {
			if err := WriteCrashsafe(b, seed); err != nil {
				t.Error(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("full second sweep")
			}
			render := func(seed int64) string {
				var b strings.Builder
				c.render(&b, seed)
				return b.String()
			}
			a, b := render(c.seed), render(c.seed)
			if a != b {
				t.Fatalf("same-seed replays diverged:\n--- run 1\n%s--- run 2\n%s", a, b)
			}
			if c.differs != 0 && render(c.differs) == a {
				t.Fatal("different seeds produced identical reports; the replay ignores its seed")
			}
		})
	}
}

// arm is one replay arm TestInvariants runs.
type arm struct {
	name string
	run  func() Outcome
}

// arms lists every mode's arms at its golden seed.
var arms = []arm{
	{name: "churn/control", run: func() Outcome { return Run(churnSpec(2015, false)) }},
	{name: "churn/stack", run: func() Outcome { return Run(churnSpec(2015, true)) }},
	{name: "grayfail/control", run: func() Outcome { return Run(grayfailSpec(2015, false)) }},
	{name: "grayfail/stack", run: func() Outcome { return Run(grayfailSpec(2015, true)) }},
	{name: "pressure/control", run: func() Outcome { return Run(pressureSpec(2015, false)) }},
	{name: "pressure/stack", run: func() Outcome { return Run(pressureSpec(2015, true)) }},
	{name: "telemetry", run: func() Outcome { return Telemetry(7, true) }},
	{name: "multipath", run: func() Outcome { o, _ := Multipath(2015); return o }},
	{name: "multipath/churn", run: func() Outcome { return MultipathChurn(2015) }},
	{name: "crashsafe/control", run: func() Outcome {
		return Crashsafe(2015, CrashLeg{}).Outcome
	}},
	{name: "crashsafe/decay", run: func() Outcome {
		return Crashsafe(2015, CrashLeg{Decay: true}).Outcome
	}},
	{name: "crashsafe/journal-rot", run: func() Outcome {
		return Crashsafe(2015, CrashLeg{JournalFaults: true}).Outcome
	}},
	{name: "overload/control", run: func() Outcome {
		return Run(overloadSpec(2015, overloadTrace(2015), false))
	}},
	{name: "overload/stack", run: func() Outcome {
		return Run(overloadSpec(2015, overloadTrace(2015), true))
	}},
	// Open loop on four workers: arrivals are fed from several
	// workers' executor calls at once. Worker interleaving is real,
	// so only the invariants are stable here, not the report.
	{name: "overload/control/workers-4", run: func() Outcome {
		sp := overloadSpec(2015, overloadTrace(2015), false)
		sp.Config.Workers = 4
		return Run(sp)
	}},
}

// armWork is an arm's simulated work — simclock events processed and
// fluid reallocations — the hash of the transfer times it reported, and
// the workers it ran on.
type armWork struct {
	events, reallocs, times uint64
	workers                 int
}

func workOf(o Outcome) armWork {
	h := fnv.New64a()
	for _, r := range o.Results {
		hashFloat(h, r.Seconds)
		hashFloat(h, r.QueueDelay)
	}
	return armWork{o.World.Eng.Processed(), o.World.Graph.Fluid().Reallocations, h.Sum64(), o.Config.Workers}
}

// hashFloat adds f's bits to h, so a time that moves in its last bit
// moves the hash.
func hashFloat(h hash.Hash64, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

// armWorks holds the work of each arm TestInvariants ran last in this
// test binary, so TestGoldenWork reads it instead of running the arm
// again.
var armWorks = map[string]armWork{}

// TestInvariants: every mode and arm comes back clean from Check at its
// golden seed — one result per job, no double commit, no store over
// quota, no untyped failure.
func TestInvariants(t *testing.T) {
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			o := a.run()
			armWorks[a.name] = workOf(o)
			if err := o.Check(); err != nil {
				t.Fatal(err)
			}
			if len(o.Results) == 0 {
				t.Fatal("no results")
			}
		})
	}
}

// TestGoldenWork: the simulated work of each paper pair at the default
// protocol and of each replay arm that runs on one worker matches
// testdata/golden/work.txt exactly. A change that keeps every output
// byte but adds or removes work fails here; rerun with -update to
// rewrite the table on purpose. The times column is an FNV-64a over the
// bits of every transfer time the run reports (a paper pair's runs,
// cell by cell; an arm's Seconds and QueueDelay, result by result), so
// a time that moves in its last bit shows even where every printed
// figure rounds it away.
func TestGoldenWork(t *testing.T) {
	if raceEnabled {
		t.Skip("the plain test run compares the work table; the race detector only slows it down")
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-40s %10s %10s %16s\n", "run", "events", "reallocs", "times")
	for _, c := range scenario.Clients {
		for _, p := range scenario.ProviderNames {
			pr := experiments.RunPair(experiments.Default(), c, p)
			h := fnv.New64a()
			for _, cell := range pr.Grid.Cells {
				for _, s := range cell.Runs {
					hashFloat(h, s)
				}
			}
			fmt.Fprintf(&b, "%-40s %10d %10d %016x\n", "paper/"+c+"/"+p, pr.Events, pr.Reallocs, h.Sum64())
		}
	}
	for _, a := range arms {
		w, ok := armWorks[a.name]
		if !ok {
			w = workOf(a.run())
		}
		if w.workers != 1 {
			continue // real worker interleaving: the work varies between runs
		}
		fmt.Fprintf(&b, "%-40s %10d %10d %016x\n", a.name, w.events, w.reallocs, w.times)
	}
	goldentest.Check(t, "work.txt", b.Bytes())
}

// TestArrivalsFeedThroughWrappers: an arrival due while a transfer runs
// reaches the scheduler as soon as that transfer returns, whatever a
// Setup wraps around the executor. a and b queue at t=0; c arrives at
// t=10, while a is still uploading, and its higher priority must take
// the worker before b does.
func TestArrivalsFeedThroughWrappers(t *testing.T) {
	job := func(name string, prio int) sched.Job {
		return sched.Job{
			Tenant: "feed", Client: scenario.UBC, Provider: scenario.GoogleDrive,
			Name: name, Size: 30e6, Priority: prio,
		}
	}
	trace := []Arrival{{Job: job("a", 0)}, {Job: job("b", 0)}, {At: 10, Job: job("c", 5)}}
	arms := []struct {
		name  string
		setup func(*Env)
	}{
		{"plain", nil},
		{"wrapped", func(e *Env) { e.Config.Executor = struct{ *sched.SimExecutor }{e.Exec} }},
	}
	for _, arm := range arms {
		o := Run(Spec{Seed: 1, Setup: arm.setup, Fleet: trace})
		if err := o.Check(); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		var order []string
		for _, r := range o.Results {
			if r.Err != nil {
				t.Fatalf("%s: %s failed: %v", arm.name, r.Job.Name, r.Err)
			}
			order = append(order, r.Job.Name)
		}
		if got := strings.Join(order, " "); got != "a c b" {
			t.Errorf("%s: completion order [%s], want [a c b]", arm.name, got)
		}
	}
}

// TestRerouteManyWorkers: the rerouting storm replay on four workers
// neither deadlocks nor breaks an invariant. A route event fired inside
// a workload, under the executor lock, takes the route cache's lock, so
// the cache must never read the executor's clock while holding its own.
// The interleaving that used to deadlock is rare, hence the many runs
// (fewer under the race detector, which keeps every exited coroutine's
// state, so even closed worlds add up across `make stress`'s repeats);
// a run that does not finish in time fails the test instead of hanging
// it.
func TestRerouteManyWorkers(t *testing.T) {
	runs := 100
	if raceEnabled {
		runs = 10
	}
	for i := 0; i < runs; i++ {
		done := make(chan error, 1)
		go func() {
			sp := telemetrySpec(7, true, nil)
			sp.Config.Workers = 4
			done <- Run(sp).Check()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("run %d of %d did not finish within a minute: deadlock", i, runs)
		}
	}
}

// TestWorldsShutDown: every replay mode, one paper pair and the studies
// end the worlds they build. A world's server loops park until the world is
// closed, each on a goroutine of its own, so a world left open shows
// as goroutines that outlive the run and keep the world reachable.
func TestWorldsShutDown(t *testing.T) {
	modes := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"churn", func(*testing.T) { WriteChurn(io.Discard, 2015) }},
		{"grayfail", func(*testing.T) { WriteGrayfail(io.Discard, 2015) }},
		{"pressure", func(*testing.T) { WritePressure(io.Discard, 2015) }},
		{"telemetry", func(*testing.T) { WriteTelemetry(io.Discard, 7) }},
		{"multipath", func(*testing.T) { Multipath(2015) }},
		{"multipath-churn", func(*testing.T) { MultipathChurn(2015) }},
		{"crashsafe/control", func(*testing.T) { Crashsafe(2015, CrashLeg{}) }},
		{"crashsafe/crashed", func(t *testing.T) {
			if !Crashsafe(2015, CrashLeg{Point: sched.CrashBeforeAttempt, Occurrence: 15}).Crashed {
				t.Fatal("the crash leg never crashed")
			}
		}},
		{"overload", func(*testing.T) { WriteOverload(io.Discard, 2015) }},
		{"paper-pair", func(*testing.T) {
			experiments.RunPair(experiments.Quick(), scenario.UBC, scenario.GoogleDrive)
		}},
		{"studies", func(t *testing.T) {
			if err := experiments.WriteStudies(io.Discard, experiments.Quick()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m.run(t)
			// Scheduler workers may still be on their way out.
			n := runtime.NumGoroutine()
			for i := 0; i < 200 && n > base; i++ {
				time.Sleep(5 * time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				t.Fatalf("%d goroutines outlived the run", n-base)
			}
		})
	}
}
