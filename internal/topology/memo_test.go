package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"detournet/internal/fluid"
)

// uncachedRoute is RoutedLinks without the memo: the oracle for it.
func uncachedRoute(g *Graph, src, dst string) ([]*fluid.Link, error) {
	nodes, err := g.Path(src, dst)
	if err != nil {
		return nil, err
	}
	return g.LinkPath(nodes)
}

// randomWalk returns a hop sequence of 2 to 4 nodes along existing
// edges from a random node, or nil when the walk is stuck at once.
func randomWalk(g *Graph, rng *rand.Rand) []string {
	nodes := g.Nodes()
	hops := []string{nodes[rng.Intn(len(nodes))].Name}
	for len(hops) < 2+rng.Intn(3) {
		out := g.Edges(hops[len(hops)-1])
		if len(out) == 0 {
			break
		}
		hops = append(hops, out[rng.Intn(len(out))].To.Name)
	}
	if len(hops) < 2 {
		return nil
	}
	return hops
}

// Property: whatever the sequence of edge flips, pinned overrides added,
// suspended and restored, and router swaps (static or not), every
// pair's RoutedLinks equals an uncached Path + LinkPath after each
// step, errors included.
func TestPropertyRoutedLinksMemoMatchesUncached(t *testing.T) {
	routers := []PathFinder{
		MinDelay{},
		MinDelayFiltered{Allow: NoStubTransit("S1", "S2")},
		MinWeight{Weight: func(e *Edge) float64 { return 1 / e.Link.Capacity }},
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		nodes := g.Nodes()
		var pinned [][2]string
		for step := 0; step < 40; step++ {
			switch k := rng.Intn(10); {
			case k < 4:
				a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				if e, ok := g.Edge(a.Name, b.Name); ok {
					g.SetLinkState(a.Name, b.Name, e.Down())
				}
			case k == 4:
				if hops := randomWalk(g, rng); hops != nil && hops[0] != hops[len(hops)-1] {
					g.MustSetOverride(hops...)
					pinned = append(pinned, [2]string{hops[0], hops[len(hops)-1]})
				}
			case k == 5 && len(pinned) > 0:
				pr := pinned[rng.Intn(len(pinned))]
				g.SetOverrideEnabled(pr[0], pr[1], rng.Intn(2) == 0)
			case k == 6:
				g.SetRouter(routers[rng.Intn(len(routers))])
			}
			for _, a := range nodes {
				for _, b := range nodes {
					got, gerr := g.RoutedLinks(a.Name, b.Name)
					want, werr := uncachedRoute(g, a.Name, b.Name)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d %s->%s: memo %v (%v), uncached %v (%v)",
							seed, step, a.Name, b.Name, got, gerr, want, werr)
					}
				}
			}
		}
	}
}

// Under a static router a repeated lookup is served from the memo (the
// same slice comes back) until Gen moves or the router changes; a
// pinned pair and a non-static router always search again.
func TestRoutedLinksMemoLifetime(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "m", "b")
	spec := LinkSpec{CapacityBps: 1, DelaySec: 0.001}
	g.MustConnect("a", "m", spec)
	g.MustConnect("m", "b", spec)
	same := func(x, y []*fluid.Link) bool { return len(x) > 0 && &x[0] == &y[0] }
	route := func(src, dst string) []*fluid.Link {
		t.Helper()
		l, err := g.RoutedLinks(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	first := route("a", "b")
	if !same(first, route("a", "b")) {
		t.Fatal("static route not memoized")
	}
	if cap(first) != len(first) {
		t.Fatalf("memoized slice has spare capacity %d > %d: an append would write into it", cap(first), len(first))
	}
	g.SetLinkState("m", "b", false)
	g.SetLinkState("m", "b", true)
	if same(first, route("a", "b")) {
		t.Fatal("memo survived a Gen change")
	}
	warm := route("a", "b")
	g.SetRouter(MinDelayFiltered{Allow: NoStubTransit()})
	if same(warm, route("a", "b")) {
		t.Fatal("memo survived SetRouter")
	}
	g.MustSetOverride("b", "m", "a")
	if same(route("b", "a"), route("b", "a")) {
		t.Fatal("a pinned pair was memoized")
	}
	g.SetRouter(MinWeight{Weight: func(e *Edge) float64 { return e.Link.PropDelay }})
	if same(route("a", "b"), route("a", "b")) {
		t.Fatal("a non-static router's route was memoized")
	}
	if _, err := g.RoutedLinks("a", "a"); err == nil {
		t.Fatal("a one-node path routed")
	}
	if len(g.routes) != 0 {
		t.Fatalf("%d routes memoized under a non-static router", len(g.routes))
	}
}
