package bgppol

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/topology"
)

// memoWorld is the diamond policy over a small graph: stub1's host s1
// reaches stub2's host s2 through t1 (a, b) and t2 (c). The only t1
// border towards t2 is b, the far end of a slow intra-domain link.
func memoWorld() (*topology.Graph, DynamicFinder) {
	g := topology.New(fluid.New(simclock.NewEngine()))
	for _, n := range []struct{ name, dom string }{
		{"s1", "stub1"}, {"a", "t1"}, {"b", "t1"}, {"c", "t2"}, {"s2", "stub2"},
	} {
		g.MustAddNode(&topology.Node{Name: n.name, Domain: n.dom})
	}
	spec := topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.001}
	g.MustConnect("s1", "a", spec)
	g.MustConnect("a", "b", topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.020})
	g.MustConnect("b", "c", spec)
	g.MustConnect("c", "s2", spec)
	now, _ := clockAt(0)
	return g, DynamicFinder{D: NewDynamic(diamond(), now, rand.New(rand.NewSource(1)), 2, 12)}
}

// routeAndCheck routes s1 -> s2 and holds the result to the reference
// expansion of the same AS path.
func routeAndCheck(t *testing.T, g *topology.Graph, f DynamicFinder, want string) []*topology.Node {
	t.Helper()
	src, dst := g.MustNode("s1"), g.MustNode("s2")
	got, err := f.Path(g, src, dst)
	doms, derr := f.D.DomainPathAt(src.Domain, dst.Domain)
	if derr != nil {
		t.Fatal(derr)
	}
	ref, rerr := referenceExpandDomainPath(g, src, dst, doms)
	if !samePath(got, ref, err, rerr) {
		t.Fatalf("path %v (%v), reference %v (%v)", topology.PathNames(got), err, topology.PathNames(ref), rerr)
	}
	if s := strings.Join(topology.PathNames(got), ","); s != want {
		t.Fatalf("path %s, want %s", s, want)
	}
	return got
}

// TestDynamicFinderMemoInvalidation: a memoized expansion is dropped
// when the graph changes under it. A shortcut border edge added after
// the first route is taken on the next one.
func TestDynamicFinderMemoInvalidation(t *testing.T) {
	g, f := memoWorld()
	routeAndCheck(t, g, f, "s1,a,b,c,s2")
	routeAndCheck(t, g, f, "s1,a,b,c,s2") // a memo hit
	if n := len(f.D.memo[[2]*topology.Node{g.MustNode("s1"), g.MustNode("s2")}]); n != 1 {
		t.Fatalf("memo holds %d expansions for one AS path, want 1", n)
	}

	// A new t1 border one short hop from a: AddNode and its edges.
	g.MustAddNode(&topology.Node{Name: "a2", Domain: "t1"})
	g.MustConnectAsym("a2", "c", topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.001})
	routeAndCheck(t, g, f, "s1,a,b,c,s2") // a2 is not reachable from a yet
	g.MustConnectAsym("a", "a2", topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.001})
	routeAndCheck(t, g, f, "s1,a,a2,c,s2")

	// A shortcut border edge on a itself: hot potato leaves at once.
	g.MustConnectAsym("a", "c", topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.001})
	routeAndCheck(t, g, f, "s1,a,c,s2")

	// An edge flip drops the memo too (the expansion ignores edge state
	// today, so the path holds).
	g.SetLinkState("a", "c", false)
	routeAndCheck(t, g, f, "s1,a,c,s2")
	if f.D.memoGen != g.Gen() {
		t.Fatalf("memo generation %d, graph %d", f.D.memoGen, g.Gen())
	}
}

// TestDynamicFinderMemoIsolation: callers own the paths they get back;
// scribbling on one does not reach the memo.
func TestDynamicFinderMemoIsolation(t *testing.T) {
	g, f := memoWorld()
	for i := 0; i < 3; i++ { // a miss, then hits
		p := routeAndCheck(t, g, f, "s1,a,b,c,s2")
		p[1], p[2] = p[4], nil
		_ = append(p[:1], p[3:]...)
	}
}

// TestDynamicFinderMemoConcurrent: workers route through one finder at
// once; the memo is shared under the Dynamic's lock.
func TestDynamicFinderMemoConcurrent(t *testing.T) {
	g, f := memoWorld()
	nodes := g.Nodes()
	want := make(map[[2]*topology.Node]string)
	for _, a := range nodes {
		for _, b := range nodes {
			p, err := referenceFinderPath(g, f, a, b)
			want[[2]*topology.Node{a, b}] = strings.Join(topology.PathNames(p), ",") + fmt.Sprint(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, a := range nodes {
					for _, b := range nodes {
						p, err := f.Path(g, a, b)
						if got := strings.Join(topology.PathNames(p), ",") + fmt.Sprint(err); got != want[[2]*topology.Node{a, b}] {
							t.Errorf("%s->%s = %s, want %s", a.Name, b.Name, got, want[[2]*topology.Node{a, b}])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// referenceFinderPath is DynamicFinder.Path over the reference
// expansion, without the memo.
func referenceFinderPath(g *topology.Graph, f DynamicFinder, src, dst *topology.Node) ([]*topology.Node, error) {
	doms, err := f.D.DomainPathAt(src.Domain, dst.Domain)
	if err != nil {
		return nil, err
	}
	return referenceExpandDomainPath(g, src, dst, doms)
}
