package bgppol

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/topology"
)

// The hot-potato expansion before topology.Search: a map-based Dijkstra
// per candidate border router, with g.Nodes() allocated per
// extract-min. The differential tests below (and the seed-world tests in
// world_test.go) hold expandDomainPath to these, path for path and error
// for error.

// referenceExpandDomainPath is expandDomainPath over the reference
// nearestBorder and intraPath.
func referenceExpandDomainPath(g *topology.Graph, src, dst *topology.Node, doms []string) ([]*topology.Node, error) {
	full := []*topology.Node{src}
	cur := src
	for i := 0; i+1 < len(doms); i++ {
		nextDom := doms[i+1]
		seg, exit, err := referenceNearestBorder(g, cur, doms[i], nextDom)
		if err != nil {
			return nil, fmt.Errorf("bgppol: %s->%s: %w", doms[i], nextDom, err)
		}
		full = append(full, seg[1:]...)
		full = append(full, exit)
		cur = exit
	}
	if cur != dst {
		seg, err := referenceIntraPath(g, cur, dst, dst.Domain)
		if err != nil {
			return nil, fmt.Errorf("bgppol: within %s: %w", dst.Domain, err)
		}
		full = append(full, seg[1:]...)
	}
	return full, nil
}

func referenceNearestBorder(g *topology.Graph, start *topology.Node, dom, next string) ([]*topology.Node, *topology.Node, error) {
	type cand struct {
		path []*topology.Node
		exit *topology.Node
		cost float64
	}
	bestC := cand{cost: math.Inf(1)}
	for _, n := range g.Nodes() {
		if n.Domain != dom {
			continue
		}
		var far *topology.Node
		for _, e := range g.Edges(n.Name) {
			if e.To.Domain == next {
				far = e.To
				break
			}
		}
		if far == nil {
			continue
		}
		seg, err := referenceIntraPath(g, start, n, dom)
		if err != nil {
			continue
		}
		cost := 0.0
		for i := 0; i+1 < len(seg); i++ {
			e, _ := g.Edge(seg[i].Name, seg[i+1].Name)
			cost += e.Link.PropDelay
		}
		if cost < bestC.cost || (cost == bestC.cost && far.Name < bestC.exit.Name) {
			bestC = cand{path: seg, exit: far, cost: cost}
		}
	}
	if bestC.exit == nil {
		return nil, nil, fmt.Errorf("no border router towards %s", next)
	}
	return bestC.path, bestC.exit, nil
}

func referenceIntraPath(g *topology.Graph, src, dst *topology.Node, dom string) ([]*topology.Node, error) {
	if src == dst {
		return []*topology.Node{src}, nil
	}
	dist := map[string]float64{src.Name: 0}
	prev := map[string]string{}
	visited := map[string]bool{}
	for {
		cur := ""
		best := math.Inf(1)
		for _, n := range g.Nodes() {
			if n.Domain != dom || visited[n.Name] {
				continue
			}
			if d, ok := dist[n.Name]; ok && d < best {
				best = d
				cur = n.Name
			}
		}
		if cur == "" {
			return nil, fmt.Errorf("no intra-domain route %s -> %s in %s", src.Name, dst.Name, dom)
		}
		if cur == dst.Name {
			break
		}
		visited[cur] = true
		for _, e := range g.Edges(cur) {
			if e.To.Domain != dom {
				continue
			}
			nd := dist[cur] + e.Link.PropDelay
			if d, ok := dist[e.To.Name]; !ok || nd < d {
				dist[e.To.Name] = nd
				prev[e.To.Name] = cur
			}
		}
	}
	var rev []string
	for at := dst.Name; at != src.Name; at = prev[at] {
		rev = append(rev, at)
	}
	out := []*topology.Node{src}
	for i := len(rev) - 1; i >= 0; i-- {
		n, _ := g.Node(rev[i])
		out = append(out, n)
	}
	return out, nil
}

// randomDomainGraph builds a seeded multi-domain graph: shuffled node
// names (insertion order disagrees with name order), three domains,
// several border routers per domain boundary, delays from three values
// (frequent equal-delay ties), and some edges down.
func randomDomainGraph(rng *rand.Rand) (*topology.Graph, []string) {
	g := topology.New(fluid.New(simclock.NewEngine()))
	doms := []string{"X", "Y", "Z"}
	n := 4 + rng.Intn(12)
	for _, i := range rng.Perm(26)[:n] {
		g.MustAddNode(&topology.Node{Name: string(rune('a' + i)), Domain: doms[rng.Intn(len(doms))]})
	}
	nodes := g.Nodes()
	delays := []float64{0.001, 0.002, 0.003}
	for tries := 2 * n; tries > 0; tries-- {
		a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
		spec := topology.LinkSpec{CapacityBps: 1e6, DelaySec: delays[rng.Intn(3)]}
		if a == b || g.ConnectAsym(a.Name, b.Name, spec) != nil {
			continue
		}
		if rng.Intn(6) == 0 {
			g.SetLinkState(a.Name, b.Name, false)
		}
	}
	return g, doms
}

func samePath(a, b []*topology.Node, errA, errB error) bool {
	return fmt.Sprint(errA) == fmt.Sprint(errB) &&
		strings.Join(topology.PathNames(a), ",") == strings.Join(topology.PathNames(b), ",")
}

func TestRouteKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb0a2d))
	found := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		g, doms := randomDomainGraph(rng)
		nodes := g.Nodes()
		for _, start := range nodes {
			// Every (dom, next) pair, including dom != start.Domain: a
			// start outside the domain reaches no border router.
			for _, dom := range doms {
				for _, next := range doms {
					if dom == next {
						continue
					}
					seg, exit, err := nearestBorder(g, start, dom, next)
					rseg, rexit, rerr := referenceNearestBorder(g, start, dom, next)
					if !samePath(seg, rseg, err, rerr) || exit != rexit {
						t.Fatalf("trial %d nearestBorder(%s, %s, %s) = %v %v (%v), reference %v %v (%v)", trial,
							start.Name, dom, next, topology.PathNames(seg), exit, err, topology.PathNames(rseg), rexit, rerr)
					}
					if err == nil {
						found["border"]++
					} else {
						found["no border"]++
					}
				}
			}
			for _, dst := range nodes {
				path, err := intraPath(g, start, dst, dst.Domain)
				rpath, rerr := referenceIntraPath(g, start, dst, dst.Domain)
				if !samePath(path, rpath, err, rerr) {
					t.Fatalf("trial %d intraPath(%s, %s) = %v (%v), reference %v (%v)", trial,
						start.Name, dst.Name, topology.PathNames(path), err, topology.PathNames(rpath), rerr)
				}
				if err == nil && len(path) > 2 {
					found["multi-hop"]++
				}
			}
			// Whole expansions over random domain paths.
			for i := 0; i < 3; i++ {
				dst := nodes[rng.Intn(len(nodes))]
				dp := []string{start.Domain}
				for hops := rng.Intn(3); hops > 0; hops-- {
					dp = append(dp, doms[rng.Intn(len(doms))])
				}
				if dp[len(dp)-1] != dst.Domain {
					dp = append(dp, dst.Domain)
				}
				path, err := expandDomainPath(g, start, dst, dp)
				rpath, rerr := referenceExpandDomainPath(g, start, dst, dp)
				if !samePath(path, rpath, err, rerr) {
					t.Fatalf("trial %d expand(%s, %s, %v) = %v (%v), reference %v (%v)", trial, start.Name, dst.Name,
						dp, topology.PathNames(path), err, topology.PathNames(rpath), rerr)
				}
			}
		}
	}
	if found["border"] < 100 || found["no border"] < 100 || found["multi-hop"] < 100 {
		t.Fatalf("weak coverage: %v", found)
	}
}

// Inside a domain, hot-potato routing ignores Edge.Down: bgppol's
// intra-domain search has no edge filter, unlike topology's routers,
// which skip down edges. This pins the behaviour the golden outputs
// were made with; changing it is a behaviour change.
func TestIntraDomainUsesDownEdges(t *testing.T) {
	g := topology.New(fluid.New(simclock.NewEngine()))
	for _, n := range []string{"a", "b", "c"} {
		g.MustAddNode(&topology.Node{Name: n, Domain: "X"})
	}
	g.MustAddNode(&topology.Node{Name: "y", Domain: "Y"})
	g.MustConnect("a", "b", topology.LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.MustConnect("a", "c", topology.LinkSpec{CapacityBps: 1, DelaySec: 0.005})
	g.MustConnect("c", "b", topology.LinkSpec{CapacityBps: 1, DelaySec: 0.005})
	g.MustConnect("b", "y", topology.LinkSpec{CapacityBps: 1, DelaySec: 0.001})
	g.SetLinkState("a", "b", false)
	seg, err := intraPath(g, g.MustNode("a"), g.MustNode("b"), "X")
	if err != nil || strings.Join(topology.PathNames(seg), ",") != "a,b" {
		t.Fatalf("intraPath = %v (%v), want a,b over the down edge", topology.PathNames(seg), err)
	}
	seg, exit, err := nearestBorder(g, g.MustNode("a"), "X", "Y")
	if err != nil || exit.Name != "y" || strings.Join(topology.PathNames(seg), ",") != "a,b" {
		t.Fatalf("nearestBorder = %v -> %v (%v), want a,b -> y", topology.PathNames(seg), exit, err)
	}
	if p, _ := g.Path("a", "b"); strings.Join(topology.PathNames(p), ",") != "a,c,b" {
		t.Fatalf("topology router = %v, want a,c,b around the down edge", topology.PathNames(p))
	}
}
