package topology_test

import (
	"testing"

	"detournet/internal/scenario"
	"detournet/internal/topology"
)

// BenchmarkGraphPath routes host pairs of the seed world through
// Graph.Path, as transport.Dial does: route pins first, then the world's
// MinDelayFiltered router (no stub-domain transit). One op is one pair.
func BenchmarkGraphPath(b *testing.B) {
	g := scenario.Build(2015).Graph
	var hosts []string
	for _, n := range g.Nodes() {
		if n.Kind == topology.Host {
			hosts = append(hosts, n.Name)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := hosts[i%len(hosts)], hosts[(i/len(hosts))%len(hosts)]
		if _, err := g.Path(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
