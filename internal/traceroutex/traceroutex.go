// Package traceroutex reproduces the paper's traceroute evidence
// (Figs 5–6): it walks the routed path in the topology, reports each
// hop's reverse-DNS name and address, renders the classic output format,
// and shows anonymous hops as "* * *" for routers that do not answer
// ICMP (hops 2 and 10 of the paper's UAlberta trace).
package traceroutex

import (
	"fmt"
	"strings"

	"detournet/internal/geo"
	"detournet/internal/topology"
)

// Hop is one TTL step of a trace.
type Hop struct {
	TTL    int
	Node   *topology.Node
	Hidden bool       // true renders "* * *"
	RTTms  [3]float64 // three probe round trips, milliseconds
}

// Result is a completed trace.
type Result struct {
	Src, Dst *topology.Node
	Hops     []Hop
}

// maxTTL truncates long paths, like the real tool's default.
const maxTTL = 30

// Run traces from src to dst along the currently routed path. Each
// hop's three probes read the path's round-trip propagation delay.
func Run(g *topology.Graph, src, dst string) (*Result, error) {
	path, err := g.Path(src, dst)
	if err != nil {
		return nil, err
	}
	res := &Result{Src: path[0], Dst: path[len(path)-1]}
	var cum float64 // one-way cumulative delay to the current hop
	for i := 1; i < len(path) && i <= maxTTL; i++ {
		e, ok := g.Edge(path[i-1].Name, path[i].Name)
		if !ok {
			return nil, fmt.Errorf("traceroutex: broken path at %s", path[i].Name)
		}
		cum += e.Link.PropDelay
		rtt := 2 * cum * 1000
		hop := Hop{TTL: i, Node: path[i], Hidden: !path[i].RespondsICMP, RTTms: [3]float64{rtt, rtt, rtt}}
		res.Hops = append(res.Hops, hop)
	}
	return res, nil
}

// Format renders the trace in the classic traceroute layout used by the
// paper's figures.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traceroute to %s (%s)\n", r.Dst.Hostname, r.Dst.IP)
	for _, h := range r.Hops {
		if h.Hidden {
			fmt.Fprintf(&b, "%2d  * * *\n", h.TTL)
			continue
		}
		fmt.Fprintf(&b, "%2d  %s (%s)  %.3f ms  %.3f ms  %.3f ms\n",
			h.TTL, h.Node.Hostname, h.Node.IP, h.RTTms[0], h.RTTms[1], h.RTTms[2])
	}
	return b.String()
}

// GeoHop is a geolocated hop, the paper's Fig 3 data.
type GeoHop struct {
	Hop  Hop
	Site geo.Site
	OK   bool
}

// Geolocate resolves every visible hop against the IP location database.
func (r *Result) Geolocate(db *geo.DB) []GeoHop {
	out := make([]GeoHop, 0, len(r.Hops))
	for _, h := range r.Hops {
		gh := GeoHop{Hop: h}
		if !h.Hidden {
			gh.Site, gh.OK = db.Lookup(h.Node.IP)
		}
		out = append(out, gh)
	}
	return out
}

// PathKm sums great-circle distance over the geolocated hops, a measure
// of the geographic detour a route takes.
func PathKm(hops []GeoHop) float64 {
	var km float64
	var prev *geo.Site
	for i := range hops {
		if !hops[i].OK {
			continue
		}
		if prev != nil {
			km += geo.HaversineKm(prev.Coord, hops[i].Site.Coord)
		}
		prev = &hops[i].Site
	}
	return km
}
