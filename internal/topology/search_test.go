package topology

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceDijkstra is the map-based search the routers used before
// Search: string-keyed distance, predecessor and visited maps, linear
// extract-min over insertion order, strict-< relaxation. It is the
// oracle TestSearchMatchesReference compares Search against.
func referenceDijkstra(g *Graph, src, dst *Node, w WeightFunc, allow EdgeFilter) ([]*Node, error) {
	const unreached = math.MaxFloat64
	nodes := g.Nodes()
	dist := make(map[string]float64, len(nodes))
	prev := make(map[string]string, len(nodes))
	visited := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		dist[n.Name] = unreached
	}
	dist[src.Name] = 0
	for {
		cur := ""
		best := unreached
		for _, n := range nodes {
			if !visited[n.Name] && dist[n.Name] < best {
				best = dist[n.Name]
				cur = n.Name
			}
		}
		if cur == "" {
			return nil, fmt.Errorf("topology: no route %s -> %s", src.Name, dst.Name)
		}
		if cur == dst.Name {
			break
		}
		visited[cur] = true
		for _, e := range g.Edges(cur) {
			if e.down {
				continue
			}
			if allow != nil && !allow(e, src, dst) {
				continue
			}
			ew := w(e)
			if ew < 0 {
				return nil, fmt.Errorf("topology: negative weight on %s->%s", e.From.Name, e.To.Name)
			}
			if nd := dist[cur] + ew; nd < dist[e.To.Name] {
				dist[e.To.Name] = nd
				prev[e.To.Name] = cur
			}
		}
	}
	var rev []string
	for at := dst.Name; at != src.Name; at = prev[at] {
		rev = append(rev, at)
	}
	out := []*Node{src}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, g.MustNode(rev[i]))
	}
	return out, nil
}

// randomGraph builds a seeded random directed graph for the
// differential tests. Node names are a shuffled alphabet, so insertion
// order and name order (the adjacency sort) disagree; delays come from
// three values, so equal-delay paths are common; some edges are down
// and some nodes unreachable.
func randomGraph(rng *rand.Rand) *Graph {
	g := newGraph()
	n := 2 + rng.Intn(11)
	domains := []string{"A", "B", "S1", "S2"}
	for _, i := range rng.Perm(26)[:n] {
		g.MustAddNode(&Node{Name: string(rune('a' + i)), Domain: domains[rng.Intn(len(domains))]})
	}
	nodes := g.Nodes()
	delays := []float64{0.001, 0.002, 0.003}
	caps := []float64{10, 20, 40}
	for tries := rng.Intn(3 * n); tries > 0; tries-- {
		a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
		spec := LinkSpec{CapacityBps: caps[rng.Intn(3)], DelaySec: delays[rng.Intn(3)]}
		if a == b || g.ConnectAsym(a.Name, b.Name, spec) != nil {
			continue
		}
		if rng.Intn(8) == 0 {
			g.SetLinkState(a.Name, b.Name, false)
		}
	}
	return g
}

func TestSearchMatchesReference(t *testing.T) {
	delay := func(e *Edge) float64 { return e.Link.PropDelay }
	invCap := func(e *Edge) float64 { return 1 / e.Link.Capacity }
	signed := func(e *Edge) float64 { return e.Link.PropDelay - 0.0025 }
	routers := []struct {
		name   string
		finder PathFinder
		w      WeightFunc
		allow  EdgeFilter
	}{
		{"MinDelay", MinDelay{}, delay, nil},
		{"NoStubTransit", MinDelayFiltered{Allow: NoStubTransit("S1", "S2")}, delay, NoStubTransit("S1", "S2")},
		{"MinWeight", MinWeight{Weight: invCap}, invCap, nil},
		{"NegativeWeight", MinWeight{Weight: signed}, signed, nil},
	}
	rng := rand.New(rand.NewSource(0x5ea5c4))
	compared := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng)
		for _, r := range routers {
			for _, src := range g.Nodes() {
				for _, dst := range g.Nodes() {
					got, gotErr := r.finder.Path(g, src, dst)
					want, wantErr := referenceDijkstra(g, src, dst, r.w, r.allow)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
						strings.Join(PathNames(got), ",") != strings.Join(PathNames(want), ",") {
						t.Fatalf("trial %d %s %s->%s: got %v (%v), reference %v (%v)", trial, r.name,
							src.Name, dst.Name, PathNames(got), gotErr, PathNames(want), wantErr)
					}
					switch {
					case wantErr != nil:
						compared["error"]++
					case len(want) > 2:
						compared["multi-hop"]++
					}
				}
			}
		}
	}
	// The generator must exercise both outcomes, not just one.
	if compared["error"] < 100 || compared["multi-hop"] < 100 {
		t.Fatalf("weak coverage: %v", compared)
	}
}

// Equal-delay routes whose middle nodes are inserted in the opposite
// order to their names: the search settles in insertion order, so the
// first-inserted middle node wins even though the adjacency lists are
// sorted by name.
func TestSearchInsertionOrderTie(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "z", "m", "b")
	spec := LinkSpec{CapacityBps: 1, DelaySec: 0.004}
	g.MustConnect("a", "z", spec)
	g.MustConnect("a", "m", spec)
	g.MustConnect("z", "b", spec)
	g.MustConnect("m", "b", spec)
	p, err := g.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceDijkstra(g, g.MustNode("a"), g.MustNode("b"), func(e *Edge) float64 { return e.Link.PropDelay }, nil)
	if got := strings.Join(PathNames(p), ","); got != "a,z,b" || got != strings.Join(PathNames(want), ",") {
		t.Fatalf("path = %s, reference %v, want a,z,b", got, PathNames(want))
	}
}

func TestSearchTree(t *testing.T) {
	g := newGraph()
	addN(t, g, "a", "b", "c", "d", "x")
	g.MustConnect("a", "b", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustConnect("b", "c", LinkSpec{CapacityBps: 1, DelaySec: 0.002})
	g.MustConnect("a", "c", LinkSpec{CapacityBps: 1, DelaySec: 0.005})
	g.MustConnect("c", "d", LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustNode("d").Domain = "far"
	tr, err := Search{}.Run(g, g.MustNode("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := tr.Dist(g.MustNode("d")); !ok || d != 0.001+0.002+0.001 {
		t.Fatalf("Dist(d) = %v, %v", d, ok)
	}
	if got := strings.Join(PathNames(tr.Path(g.MustNode("d"))), ","); got != "a,b,c,d" {
		t.Fatalf("Path(d) = %s", got)
	}
	if _, ok := tr.Dist(g.MustNode("x")); ok || tr.Path(g.MustNode("x")) != nil {
		t.Fatal("unreachable x settled")
	}
	// Settled walks the settled nodes, x left out, in insertion order:
	// from d they settle as d, c, b, a.
	fromD, err := Search{}.Run(g, g.MustNode("d"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var walked []string
	fromD.Settled(func(n *Node, d float64) {
		if want, _ := fromD.Dist(n); d != want {
			t.Fatalf("Settled gives %s at %v, Dist %v", n.Name, d, want)
		}
		walked = append(walked, n.Name)
	})
	if got := strings.Join(walked, ","); got != "a,b,c,d" {
		t.Fatalf("Settled walks %s, want a,b,c,d", got)
	}
	// A node filter fences the search in; a rejected source reaches
	// nothing, not even itself.
	near := Search{Node: func(n *Node) bool { return n.Domain == "" }}
	if tr, _ = near.Run(g, g.MustNode("a"), nil); tr.Path(g.MustNode("d")) != nil || tr.Path(g.MustNode("c")) == nil {
		t.Fatal("node filter not applied")
	}
	if tr, _ = near.Run(g, g.MustNode("d"), nil); tr.Path(g.MustNode("d")) != nil {
		t.Fatal("rejected source settled")
	}
	// Down edges are the edge filter's business: an unfiltered search
	// uses them.
	g.SetLinkState("a", "b", false)
	if tr, _ = (Search{}).Run(g, g.MustNode("a"), g.MustNode("c")); strings.Join(PathNames(tr.Path(g.MustNode("c"))), ",") != "a,b,c" {
		t.Fatal("unfiltered search skipped a down edge")
	}
	if p, _ := g.Path("a", "c"); strings.Join(PathNames(p), ",") != "a,c" {
		t.Fatalf("router used a down edge: %v", PathNames(p))
	}
	other := newGraph()
	addN(t, other, "a")
	if _, err := (Search{}).Run(g, other.MustNode("a"), nil); err == nil {
		t.Fatal("search from another graph's node accepted")
	}
	if tr.Path(other.MustNode("a")) != nil {
		t.Fatal("Path answered for another graph's node")
	}
}

func TestAddNodeRejectsRegisteredNode(t *testing.T) {
	g, other := newGraph(), newGraph()
	n := g.MustAddNode(&Node{Name: "a"})
	if _, err := other.AddNode(n); err == nil {
		t.Fatal("node of another graph accepted")
	}
	if _, err := g.AddNode(n); err == nil {
		t.Fatal("node added twice")
	}
	if len(other.Nodes()) != 0 || len(g.Nodes()) != 1 {
		t.Fatalf("rejected node registered: %d, %d nodes", len(other.Nodes()), len(g.Nodes()))
	}
}
