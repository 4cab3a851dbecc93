package sched

import (
	"errors"
	"fmt"
	"testing"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
)

// churnPaths builds a two-candidate paths map: the detour crosses the
// cybera~canarie domain boundary, the direct route does not.
func churnPaths(det core.Route) map[core.Route][]PathHop {
	return map[core.Route][]PathHop{
		core.DirectRoute: {
			{Node: "ubc", Domain: "ubc"},
			{Node: "bcnet-core", Domain: "bcnet"},
			{Node: "gdrive-dc", Domain: "google"},
		},
		det: {
			{Node: "ubc", Domain: "ubc"},
			{Node: "cybera-core", Domain: "cybera"},
			{Node: "canarie-core", Domain: "canarie"},
			{Node: "gdrive-dc", Domain: "google"},
		},
	}
}

// TestCacheRouteEventConverging: a session withdraw touching a cached
// candidate's path marks it converging — a state distinct from
// quarantine — and re-elects the decision off the dying route at once
// instead of waiting for the TTL or a failed transfer.
func TestCacheRouteEventConverging(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(1000, 30, fakeClock(&clock))
	k := KeyFor("ubc-pl", "GoogleDrive", 60e6)
	det := core.ViaRoute("ualberta")
	c.InsertWithPaths(k, det, []core.Route{core.DirectRoute, det}, churnPaths(det))

	c.ApplyRouteEvent(RouteEvent{
		Withdraw: true, DomainA: "cybera", DomainB: "canarie",
		At: 5, ConvergedBy: 50,
	})
	if h := c.Health(k, det); h != RouteConverging {
		t.Fatalf("detour health = %v, want converging", h)
	}
	if h := c.Health(k, core.DirectRoute); h != RouteHealthy {
		t.Fatalf("direct health = %v, want healthy (its path avoids the session)", h)
	}
	if r, ok := c.Lookup(k); !ok || r != core.DirectRoute {
		t.Fatalf("after withdraw Lookup = %v %v, want immediate re-election to direct", r, ok)
	}
	_, cv, _ := c.Counters()
	if cv != 1 {
		t.Fatalf("converges counter = %d, want 1", cv)
	}

	// The hold is max(event+quarantineTTL, ConvergedBy): with slow
	// convergence the route stays benched past the quarantine window
	// (5+30=35) all the way to the horizon.
	clock = 36
	if h := c.Health(k, det); h != RouteConverging {
		t.Fatalf("health before ConvergedBy = %v, want converging", h)
	}
	clock = 51
	if h := c.Health(k, det); h != RouteHealthy {
		t.Fatalf("health past ConvergedBy = %v, want healthy", h)
	}

	// A matching announce clears the hold early.
	clock = 18
	c.ApplyRouteEvent(RouteEvent{
		Withdraw: true, DomainA: "cybera", DomainB: "canarie",
		At: 18, ConvergedBy: 60,
	})
	c.ApplyRouteEvent(RouteEvent{
		DomainA: "cybera", DomainB: "canarie", At: 20,
	})
	if h := c.Health(k, det); h != RouteHealthy {
		t.Fatalf("health after announce = %v, want healthy", h)
	}
	_, _, an := c.Counters()
	if an != 1 {
		t.Fatalf("announces counter = %d, want 1", an)
	}
}

// TestCacheAnnounceClearsQuarantine is the link-flap-restore fix: a
// route that failed (quarantined) while its link was down must return
// to service the moment the restore event announces, not when the
// quarantine TTL happens to lapse.
func TestCacheAnnounceClearsQuarantine(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(1000, 500, fakeClock(&clock))
	k := KeyFor("ubc-pl", "GoogleDrive", 60e6)
	det := core.ViaRoute("ualberta")
	c.InsertWithPaths(k, det, []core.Route{core.DirectRoute, det}, churnPaths(det))

	c.Invalidate(k, det) // transfer died on the downed link
	if h := c.Health(k, det); h != RouteQuarantined {
		t.Fatalf("health after failure = %v, want quarantined", h)
	}

	// Node-scoped restore event from the fault injector (a link flap
	// names its endpoints, not a BGP session).
	c.ApplyRouteEvent(RouteEvent{FromNode: "cybera-core", ToNode: "canarie-core", At: 10})
	if h := c.Health(k, det); h != RouteHealthy {
		t.Fatalf("health after restore announce = %v, want healthy, not quarantined until t=%v", h, 500.0)
	}
}

// TestInjectorLinkRestorePublishes: the fault injector's link flaps
// publish withdraw/announce route events on the world bus, so restored
// links reach subscribers (the route cache) immediately.
func TestInjectorLinkRestorePublishes(t *testing.T) {
	w := scenario.Build(11)
	var events []RouteEvent
	w.RouteBus.Subscribe(func(ev bgppol.Event) {
		events = append(events, RouteEvent{
			Withdraw: ev.Kind == bgppol.EventWithdraw,
			FromNode: ev.FromNode, ToNode: ev.ToNode,
			At: ev.At,
		})
	})
	faults.NewInjector(w, 11, faults.Spec{
		Kind: faults.LinkDown, From: "vncv1", To: "edmn1",
		Start: 5, Duration: 10,
	})
	w.RunWorkload("tick", func(p *simproc.Proc) { p.Sleep(simclock.Duration(30)) })
	if len(events) != 2 {
		t.Fatalf("events = %d, want withdraw+announce pair", len(events))
	}
	if !events[0].Withdraw || events[0].At != 5 {
		t.Fatalf("first event = %+v, want withdraw at t=5", events[0])
	}
	if events[1].Withdraw || events[1].At != 15 {
		t.Fatalf("second event = %+v, want announce at t=15", events[1])
	}
}

// TestParkExhaustionIsTyped: when every route to the provider stays
// withdrawn past the park budget, the transfer fails with an error
// wrapping core.ErrNoRoute — the typed outcome detourctl and operators
// key off — classified Transient so a later attempt can park again.
func TestParkExhaustionIsTyped(t *testing.T) {
	raw := fmt.Errorf("sched: execute x via Direct: parked 90s with no usable route: %w", core.ErrNoRoute)
	err := classifyExecErr(raw)
	if !errors.Is(err, core.ErrNoRoute) {
		t.Fatalf("classified error %v hides core.ErrNoRoute", err)
	}
	if got := Classify(err); got != FailTransient {
		t.Fatalf("Classify(%v) = %v, want transient (so the scheduler retries and parks again)", err, got)
	}
}

// TestRerouteNeverDetoursViaSelf: a job whose client is itself a DTN
// (UAlberta) must not be offered "detour via UAlberta" when its current
// route keeps failing — that route's first hop is a path of one node,
// and the transfer would die with an untyped error. It must settle on
// another DTN instead.
func TestRerouteNeverDetoursViaSelf(t *testing.T) {
	w := scenario.Build(1)
	exec := NewSimExecutor(w)
	defer exec.Close()
	job := Job{Tenant: "t", Client: scenario.UAlberta, Provider: scenario.GoogleDrive, Name: "self.bin", Size: 60e6}
	var got core.Route
	var ok bool
	w.RunWorkload("await", func(p *simproc.Proc) {
		got, _, ok = exec.awaitRoute(p, job, &core.Checkpoint{}, core.DirectRoute, 10, true)
	})
	if !ok {
		t.Fatal("no route found with every DTN path up")
	}
	if got.Kind == core.Detour && got.Via == job.Client {
		t.Fatalf("rerouted %s via itself (%s)", job.Client, got)
	}
	if got != core.ViaRoute(scenario.UMich) {
		t.Fatalf("reroute = %s, want via %s", got, scenario.UMich)
	}
}
