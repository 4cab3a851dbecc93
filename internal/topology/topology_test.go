package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"detournet/internal/fluid"
	"detournet/internal/geo"
	"detournet/internal/simclock"
)

func newGraph() *Graph {
	return New(fluid.New(simclock.NewEngine()))
}

func addN(t *testing.T, g *Graph, names ...string) {
	t.Helper()
	for _, n := range names {
		g.MustAddNode(&Node{Name: n, Kind: Router, RespondsICMP: true})
	}
}

func TestAddNodeErrors(t *testing.T) {
	g := newGraph()
	if _, err := g.AddNode(&Node{}); err == nil {
		t.Fatal("nameless node accepted")
	}
	g.MustAddNode(&Node{Name: "a"})
	if _, err := g.AddNode(&Node{Name: "a"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestHostnameDefaultsToName(t *testing.T) {
	g := newGraph()
	n := g.MustAddNode(&Node{Name: "r1"})
	if n.Hostname != "r1" {
		t.Fatalf("Hostname = %q", n.Hostname)
	}
}

func TestConnectErrors(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "b")
	if err := g.Connect("a", "missing", LinkSpec{CapacityBps: 1}); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.Connect("a", "a", LinkSpec{CapacityBps: 1}); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := g.Connect("a", "b", LinkSpec{CapacityBps: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	g.MustConnect("a", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	if err := g.ConnectAsym("a", "b", LinkSpec{CapacityBps: 1}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestDelayDerivedFromGeo(t *testing.T) {
	g := newGraph()
	g.MustAddNode(&Node{Name: "van", Site: geo.UBC})
	g.MustAddNode(&Node{Name: "edm", Site: geo.UAlberta})
	g.MustConnect("van", "edm", LinkSpec{CapacityBps: 1e6})
	e, _ := g.Edge("van", "edm")
	// ~820 km * 1.4 / 200000 km/s ≈ 5.7 ms
	if e.Link.PropDelay < 0.004 || e.Link.PropDelay > 0.008 {
		t.Fatalf("derived delay = %v, want ~5.7ms", e.Link.PropDelay)
	}
}

func TestSameSiteDefaultDelay(t *testing.T) {
	g := newGraph()
	g.MustAddNode(&Node{Name: "h1", Site: geo.UBC})
	g.MustAddNode(&Node{Name: "h2", Site: geo.UBC})
	g.MustConnect("h1", "h2", LinkSpec{CapacityBps: 1e6})
	e, _ := g.Edge("h1", "h2")
	if e.Link.PropDelay <= 0 {
		t.Fatal("same-site link must still have positive delay")
	}
}

func TestShortestPathByDelay(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "m1", "m2", "b")
	g.MustConnect("a", "m1", LinkSpec{CapacityBps: 1, DelaySec: 0.010})
	g.MustConnect("m1", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.010})
	g.MustConnect("a", "m2", LinkSpec{CapacityBps: 1, DelaySec: 0.002})
	g.MustConnect("m2", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.002})
	p, err := g.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(PathNames(p), ","); got != "a,m2,b" {
		t.Fatalf("path = %s, want a,m2,b", got)
	}
}

func TestNoRoute(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "b")
	if _, err := g.Path("a", "b"); err == nil {
		t.Fatal("disconnected path did not error")
	}
	if _, err := g.Path("a", "missing"); err == nil {
		t.Fatal("unknown dst did not error")
	}
	if _, err := g.Path("missing", "a"); err == nil {
		t.Fatal("unknown src did not error")
	}
}

func TestTrivialPath(t *testing.T) {
	g := newGraph()
	addN(t, g, "a")
	p, err := g.Path("a", "a")
	if err != nil || len(p) != 1 || p[0].Name != "a" {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestOverrideWins(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "fast", "slow", "b")
	g.MustConnect("a", "fast", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustConnect("fast", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustConnect("a", "slow", LinkSpec{CapacityBps: 1, DelaySec: 0.050})
	g.MustConnect("slow", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.050})
	g.MustSetOverride("a", "slow", "b")
	p, err := g.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(PathNames(p), ","); got != "a,slow,b" {
		t.Fatalf("override ignored: %s", got)
	}
	// Reverse direction unaffected.
	p, err = g.Path("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(PathNames(p), ","); got != "b,fast,a" {
		t.Fatalf("reverse path = %s, want b,fast,a", got)
	}
}

func TestOverrideValidation(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "b", "c")
	g.MustConnect("a", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	if err := g.SetOverride("a"); err == nil {
		t.Fatal("single-hop override accepted")
	}
	if err := g.SetOverride("a", "c"); err == nil {
		t.Fatal("override over missing edge accepted")
	}
}

func TestLinkPathAndRTT(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "m", "b")
	g.MustConnect("a", "m", LinkSpec{CapacityBps: 100, DelaySec: 0.010})
	g.MustConnect("m", "b", LinkSpec{CapacityBps: 50, DelaySec: 0.020})
	links, err := g.RoutedLinks("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %d, want 2", len(links))
	}
	if c := fluid.BottleneckCapacity(links); c != 50 {
		t.Fatalf("bottleneck = %v, want 50", c)
	}
	rtt, err := g.RTT("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 0.0599 || rtt > 0.0601 {
		t.Fatalf("RTT = %v, want 60ms", rtt)
	}
}

func TestLinkPathErrors(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "b")
	if _, err := g.LinkPath([]*Node{g.MustNode("a")}); err == nil {
		t.Fatal("1-node link path accepted")
	}
	if _, err := g.LinkPath([]*Node{g.MustNode("a"), g.MustNode("b")}); err == nil {
		t.Fatal("link path over missing edge accepted")
	}
}

func TestFlowOverRoutedPath(t *testing.T) {
	eng := simclock.NewEngine()
	g := New(fluid.New(eng))
	addN(t, g, "src", "r", "dst")
	g.MustConnect("src", "r", LinkSpec{CapacityBps: 1000, DelaySec: 0.001})
	g.MustConnect("r", "dst", LinkSpec{CapacityBps: 100, DelaySec: 0.001})
	links, err := g.RoutedLinks("src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	f := g.Fluid().StartFlow(links, 1000, fluid.FlowOpts{})
	eng.Run()
	if got := float64(f.FinishedAt()); got < 9.99 || got > 10.01 {
		t.Fatalf("transfer over routed path took %v, want 10", got)
	}
}

func TestMinWeightRouter(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "m1", "m2", "b")
	// m1 has lower delay, m2 higher capacity.
	g.MustConnect("a", "m1", LinkSpec{CapacityBps: 10, DelaySec: 0.001})
	g.MustConnect("m1", "b", LinkSpec{CapacityBps: 10, DelaySec: 0.001})
	g.MustConnect("a", "m2", LinkSpec{CapacityBps: 1000, DelaySec: 0.050})
	g.MustConnect("m2", "b", LinkSpec{CapacityBps: 1000, DelaySec: 0.050})
	g.SetRouter(MinWeight{Weight: func(e *Edge) float64 { return 1 / e.Link.Capacity }})
	p, _ := g.Path("a", "b")
	if got := strings.Join(PathNames(p), ","); got != "a,m2,b" {
		t.Fatalf("capacity-weighted path = %s, want a,m2,b", got)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-delay routes: the one through the first-inserted node wins,
	// consistently.
	for trial := 0; trial < 5; trial++ {
		g := newGraph()
		addN(t, g, "a", "x", "y", "b")
		spec := LinkSpec{CapacityBps: 1, DelaySec: 0.005}
		g.MustConnect("a", "x", spec)
		g.MustConnect("x", "b", spec)
		g.MustConnect("a", "y", spec)
		g.MustConnect("y", "b", spec)
		p, _ := g.Path("a", "b")
		if got := strings.Join(PathNames(p), ","); got != "a,x,b" {
			t.Fatalf("tie-break not deterministic: %s", got)
		}
	}
}

// Property: on random connected graphs, Dijkstra paths are valid edge
// walks, start/end correctly, and delay is minimal versus brute-force DFS
// enumeration on small graphs.
func TestPropertyDijkstraOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := newGraph()
		n := 6
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			g.MustAddNode(&Node{Name: names[i]})
		}
		// Ring for connectivity plus random chords.
		for i := 0; i < n; i++ {
			spec := LinkSpec{CapacityBps: 1, DelaySec: 0.001 + rng.Float64()*0.05}
			g.MustConnect(names[i], names[(i+1)%n], spec)
		}
		for i := 0; i < 4; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			spec := LinkSpec{CapacityBps: 1, DelaySec: 0.001 + rng.Float64()*0.05}
			_ = g.Connect(names[a], names[b], spec) // duplicates rejected, fine
		}
		src, dst := names[0], names[n-1]
		p, err := g.Path(src, dst)
		if err != nil {
			return false
		}
		// Validate edge walk.
		for i := 0; i+1 < len(p); i++ {
			if _, ok := g.Edge(p[i].Name, p[i+1].Name); !ok {
				return false
			}
		}
		if p[0].Name != src || p[len(p)-1].Name != dst {
			return false
		}
		got := pathDelay(g, p)
		// Brute force all simple paths.
		best := bruteBest(g, src, dst)
		return got <= best+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func pathDelay(g *Graph, p []*Node) float64 {
	var d float64
	for i := 0; i+1 < len(p); i++ {
		e, _ := g.Edge(p[i].Name, p[i+1].Name)
		d += e.Link.PropDelay
	}
	return d
}

func bruteBest(g *Graph, src, dst string) float64 {
	best := 1e18
	seen := map[string]bool{src: true}
	var dfs func(at string, d float64)
	dfs = func(at string, d float64) {
		if d >= best {
			return
		}
		if at == dst {
			best = d
			return
		}
		for _, e := range g.Edges(at) {
			if !seen[e.To.Name] {
				seen[e.To.Name] = true
				dfs(e.To.Name, d+e.Link.PropDelay)
				seen[e.To.Name] = false
			}
		}
	}
	dfs(src, 0)
	return best
}

func TestSetLinkStateReroutes(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "m1", "m2", "b")
	g.MustConnect("a", "m1", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustConnect("m1", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustConnect("a", "m2", LinkSpec{CapacityBps: 1, DelaySec: 0.050})
	g.MustConnect("m2", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.050})
	p, _ := g.Path("a", "b")
	if strings.Join(PathNames(p), ",") != "a,m1,b" {
		t.Fatalf("initial path = %v", PathNames(p))
	}
	if !g.SetLinkState("a", "m1", false) {
		t.Fatal("SetLinkState reported missing edge")
	}
	p, err := g.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(PathNames(p), ",") != "a,m2,b" {
		t.Fatalf("post-failure path = %v", PathNames(p))
	}
	e, _ := g.Edge("a", "m1")
	if !e.Down() || e.Link.Available() > e.Link.Capacity*0.05 {
		t.Fatalf("down edge state: down=%v avail=%v", e.Down(), e.Link.Available())
	}
	// Bring it back.
	g.SetLinkState("a", "m1", true)
	p, _ = g.Path("a", "b")
	if strings.Join(PathNames(p), ",") != "a,m1,b" {
		t.Fatalf("post-recovery path = %v", PathNames(p))
	}
	if e.Link.Available() != e.Link.Capacity {
		t.Fatalf("recovered link available = %v", e.Link.Available())
	}
}

func TestSetLinkStateDisconnects(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "b")
	g.MustConnect("a", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.SetLinkState("a", "b", false)
	if _, err := g.Path("a", "b"); err == nil {
		t.Fatal("path found over the only (dead) link")
	}
	// Reverse direction stays up.
	if _, err := g.Path("b", "a"); err != nil {
		t.Fatalf("reverse path should survive: %v", err)
	}
	if g.SetLinkState("a", "ghost", false) {
		t.Fatal("missing edge reported as toggled")
	}
}

// TestGenCountsStructuralChanges: Gen moves on every change a route
// can depend on (a node, an edge, an edge flipping up or down) and on
// nothing else, so memos keyed on it are neither stale nor churned.
func TestGenCountsStructuralChanges(t *testing.T) {
	g := newGraph()
	gen := g.Gen()
	step := func(what string, moved bool) {
		t.Helper()
		if now := g.Gen(); (now != gen) != moved {
			t.Fatalf("%s: Gen %d -> %d, want moved=%v", what, gen, now, moved)
		}
		gen = g.Gen()
	}
	g.MustAddNode(&Node{Name: "a"})
	step("AddNode", true)
	g.MustAddNode(&Node{Name: "b"})
	step("AddNode", true)
	if _, err := g.AddNode(&Node{Name: "a"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	step("rejected AddNode", false)
	g.MustConnectAsym("a", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	step("ConnectAsym", true)
	if err := g.ConnectAsym("a", "b", LinkSpec{CapacityBps: 1}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	step("rejected ConnectAsym", false)
	g.SetLinkState("a", "b", true)
	step("SetLinkState up on an up edge", false)
	g.SetLinkState("a", "b", false)
	step("SetLinkState down", true)
	g.SetLinkState("a", "b", false)
	step("SetLinkState down on a down edge", false)
	g.SetLinkState("a", "b", true)
	step("SetLinkState up", true)
	g.SetLinkState("b", "a", false)
	step("SetLinkState on a missing edge", false)
	g.MustSetOverride("a", "b")
	g.SetOverrideEnabled("a", "b", false)
	step("route pins", false)
}
