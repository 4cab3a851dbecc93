package bgppol_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"detournet/internal/bgppol"
	"detournet/internal/faults"
	"detournet/internal/fluid"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
	"detournet/internal/topology"
)

const worldSeed = 2015

func hosts(g *topology.Graph) []*topology.Node {
	var out []*topology.Node
	for _, n := range g.Nodes() {
		if n.Kind == topology.Host {
			out = append(out, n)
		}
	}
	return out
}

// compareHostPairs routes every ordered host pair with finder and with
// the reference expansion over the same domain path, and fails on the
// first difference in path or error. It returns how many pairs routed.
func compareHostPairs(t *testing.T, g *topology.Graph, finder topology.PathFinder,
	domainPath func(a, b string) ([]string, error), at string) int {
	t.Helper()
	routed := 0
	hs := hosts(g)
	for _, src := range hs {
		for _, dst := range hs {
			if src == dst {
				continue
			}
			got, err := finder.Path(g, src, dst)
			var want []*topology.Node
			doms, werr := domainPath(src.Domain, dst.Domain)
			if werr == nil {
				want, werr = bgppol.ReferenceExpandDomainPath(g, src, dst, doms)
			}
			if fmt.Sprint(err) != fmt.Sprint(werr) ||
				strings.Join(topology.PathNames(got), ",") != strings.Join(topology.PathNames(want), ",") {
				t.Fatalf("%s %s->%s: got %v (%v), reference %v (%v)", at, src.Name, dst.Name,
					topology.PathNames(got), err, topology.PathNames(want), werr)
			}
			if err == nil {
				routed++
			}
		}
	}
	return routed
}

func TestFinderMatchesReferenceOnSeedWorld(t *testing.T) {
	w := scenario.Build(worldSeed, scenario.WithPolicyRouting())
	p := scenario.PaperPolicy()
	n := len(hosts(w.Graph))
	if routed := compareHostPairs(t, w.Graph, bgppol.Finder{Policy: p}, p.DomainPath, "static"); routed < n*(n-1)/2 {
		t.Fatalf("only %d of %d host pairs routed", routed, n*(n-1))
	}
}

// stormWorld builds the seed world with staged-convergence routing and
// arms the churn storm on it.
func stormWorld() *scenario.World {
	w := scenario.Build(worldSeed, scenario.WithDynamicRouting())
	faults.NewInjector(w, worldSeed, faults.ChurnSchedule()...).Restart()
	return w
}

func TestDynamicFinderMatchesReferenceInStorm(t *testing.T) {
	w := stormWorld()
	finder := bgppol.DynamicFinder{D: w.Routing}
	n := len(hosts(w.Graph))
	minRouted, maxRouted := n*n, 0
	for at := 0.0; at <= 720; at += 4 {
		w.Eng.RunUntil(simclock.Time(at))
		routed := compareHostPairs(t, w.Graph, finder, w.Routing.DomainPathAt, fmt.Sprintf("t=%v", at))
		minRouted, maxRouted = min(minRouted, routed), max(maxRouted, routed)
	}
	// The storm must actually cut some pairs off at some instants.
	if minRouted == maxRouted {
		t.Fatalf("storm never changed reachability: %d pairs routed throughout", minRouted)
	}
}

// A world under staged-convergence routing is never served from
// topology's static-route memo: its routes move with virtual time while
// the graph's generation holds still, so through the storm every pair's
// RoutedLinks must equal the links of a fresh Path.
func TestDynamicWorldBypassesRouteMemo(t *testing.T) {
	w := stormWorld()
	g := w.Graph
	hs := hosts(g)
	moved := 0
	prev := map[[2]string]string{}
	for at := 0.0; at <= 720; at += 8 {
		w.Eng.RunUntil(simclock.Time(at))
		for _, src := range hs {
			for _, dst := range hs {
				if src == dst {
					continue
				}
				got, gerr := g.RoutedLinks(src.Name, dst.Name)
				var want []*fluid.Link
				nodes, werr := g.Path(src.Name, dst.Name)
				if werr == nil {
					want, werr = g.LinkPath(nodes)
				}
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || !slices.Equal(got, want) {
					t.Fatalf("t=%v %s->%s: RoutedLinks %v (%v), fresh path %v (%v)",
						at, src.Name, dst.Name, got, gerr, want, werr)
				}
				k, route := [2]string{src.Name, dst.Name}, fmt.Sprint(want, werr)
				if old, ok := prev[k]; ok && old != route {
					moved++
				}
				prev[k] = route
			}
		}
	}
	if moved == 0 {
		t.Fatal("no route moved during the storm: the check proves nothing")
	}
}

// BenchmarkDynamicFinderPath routes every host pair of the seed world
// with the staged-convergence finder in the middle of the churn storm
// (two peerings withdrawn); one op is one pair.
func BenchmarkDynamicFinderPath(b *testing.B) {
	w := stormWorld()
	w.Eng.RunUntil(130)
	finder := bgppol.DynamicFinder{D: w.Routing}
	hs := hosts(w.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := hs[i%len(hs)], hs[(i/len(hs))%len(hs)]
		_, _ = finder.Path(w.Graph, src, dst)
	}
}
