package sched

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/scenario"
	"detournet/internal/telemetry"
)

// guardDrain pushes a small fixed fleet through an instant executor and
// a fixed planner — pure control-plane work.
func guardDrain(jobs int, reg *telemetry.Registry, rec *telemetry.FlightRecorder) time.Duration {
	exec := ExecutorFunc(func(j Job, r core.Route) (float64, error) { return 0, nil })
	plan := PlannerFunc(func(client, provider string, size float64) (core.Route, []core.Route, error) {
		return core.DirectRoute, []core.Route{core.DirectRoute}, nil
	})
	s := New(Config{
		Workers: 1, Executor: exec, Planner: plan,
		ProviderCap: -1, DTNCap: -1,
		Telemetry: reg, Recorder: rec,
	})
	s.Start()
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if err := s.Submit(Job{
			Tenant: "t", Client: "c", Provider: "p",
			Name: fmt.Sprintf("g-%05d", i), Size: 1e6,
		}); err != nil {
			panic(err)
		}
	}
	s.Drain()
	el := time.Since(start)
	s.Close()
	return el
}

// BenchmarkDrainBare / BenchmarkDrainInstrumented expose the same
// comparison as reportable numbers for `make bench`.
func BenchmarkDrainBare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guardDrain(2000, nil, nil)
	}
}

func BenchmarkDrainInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guardDrain(2000, telemetry.NewRegistry(), telemetry.NewFlightRecorder(nil, 32, 4))
	}
}

// TestRouteAttrMatchesRouteString pins the flight recorder's route
// attribute to core.Route.String for both kinds: the retained-trace
// golden holds only a Direct route, so no golden covers "via X".
func TestRouteAttrMatchesRouteString(t *testing.T) {
	for _, r := range []core.Route{
		core.DirectRoute,
		core.ViaRoute(scenario.UAlberta),
		core.ViaRoute(""),
		{Kind: core.Direct, Via: "stray"},
	} {
		a := routeAttr("route", r)
		if a.Key != "route" || a.Value() != r.String() {
			t.Errorf("routeAttr(%#v) = %s=%q, want route=%q", r, a.Key, a.Value(), r.String())
		}
	}
}

// TestFallbackCountedOnce drives a detour that fails route-down and a
// direct retry that succeeds: the failover to direct is one fallback,
// and Stats and the exported registry must both say so.
func TestFallbackCountedOnce(t *testing.T) {
	bad := core.ViaRoute(scenario.UAlberta)
	exec := newCountingExec(0)
	exec.fail = func(j Job, r core.Route) error {
		if r == bad {
			return RouteDown(errors.New("dtn withdrawn"))
		}
		return nil
	}
	reg := telemetry.NewRegistry()
	var got collector
	s := New(Config{
		Workers: 1, Executor: exec, Planner: &staticPlanner{route: bad},
		Sleep: noSleep, OnResult: got.add, Telemetry: reg,
	})
	s.Start()
	defer s.Close()
	if err := s.Submit(Job{Tenant: "t", Client: scenario.UBC, Provider: scenario.GoogleDrive, Name: "a.bin", Size: 2e6}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if res := got.all(); len(res) != 1 || res[0].Err != nil || res[0].Route != core.DirectRoute {
		t.Fatalf("results = %+v, want one direct success", res)
	}
	read := func(name string) int64 { return int64(reg.Counter(name, "").Get().Value()) }
	st := s.Stats()
	if st.Fallbacks != 1 || read("sched_fallbacks_total") != 1 {
		t.Errorf("fallbacks: Stats %d, sched_fallbacks_total %d; want 1 and 1",
			st.Fallbacks, read("sched_fallbacks_total"))
	}
	if st.Failovers != 1 || read("sched_failovers_total") != 1 {
		t.Errorf("failovers: Stats %d, sched_failovers_total %d; want 1 and 1",
			st.Failovers, read("sched_failovers_total"))
	}
}
