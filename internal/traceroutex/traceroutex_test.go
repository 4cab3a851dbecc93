package traceroutex

import (
	"fmt"
	"strings"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/geo"
	"detournet/internal/simclock"
	"detournet/internal/topology"
)

func buildGraph() *topology.Graph {
	g := topology.New(fluid.New(simclock.NewEngine()))
	add := func(name, host, ip string, icmp bool, site geo.Site) {
		g.MustAddNode(&topology.Node{Name: name, Hostname: host, IP: ip, RespondsICMP: icmp, Site: site})
	}
	add("src", "src.example.edu", "10.0.0.1", true, geo.UBC)
	add("r1", "border.example.edu", "10.0.1.1", true, geo.UBC)
	add("r2", "dark.transit.net", "10.0.2.1", false, geo.SeattleIX) // anonymous hop
	add("dst", "www.googleapis.com", "216.58.216.138", true, geo.GoogleDriveDC)
	spec := topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.005}
	g.MustConnect("src", "r1", spec)
	g.MustConnect("r1", "r2", spec)
	g.MustConnect("r2", "dst", spec)
	return g
}

func TestRunBasic(t *testing.T) {
	g := buildGraph()
	res, err := Run(g, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(res.Hops))
	}
	if res.Hops[0].Node.Hostname != "border.example.edu" || !res.Hops[1].Hidden || res.Hops[2].Node.Hostname != "www.googleapis.com" {
		t.Fatalf("hops = %+v, want border, hidden, www", res.Hops)
	}
	// RTTs are cumulative and monotone.
	if !(res.Hops[0].RTTms[0] < res.Hops[1].RTTms[0] && res.Hops[1].RTTms[0] < res.Hops[2].RTTms[0]) {
		t.Fatalf("RTTs not monotone: %v %v %v", res.Hops[0].RTTms[0], res.Hops[1].RTTms[0], res.Hops[2].RTTms[0])
	}
	// Final hop RTT = 2 * 15ms.
	if got := res.Hops[2].RTTms[0]; got < 29.9 || got > 30.1 {
		t.Fatalf("final RTT = %v, want 30ms", got)
	}
}

func TestFormatLooksLikeTraceroute(t *testing.T) {
	g := buildGraph()
	res, _ := Run(g, "src", "dst")
	out := res.Format()
	if !strings.HasPrefix(out, "traceroute to www.googleapis.com (216.58.216.138)") {
		t.Fatalf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "* * *") {
		t.Fatal("anonymous hop not rendered as * * *")
	}
	if !strings.Contains(out, "border.example.edu (10.0.1.1)") {
		t.Fatal("hop line missing host (ip)")
	}
}

func TestGeolocateAndPathKm(t *testing.T) {
	g := buildGraph()
	res, _ := Run(g, "src", "dst")
	db := geo.NewDB()
	db.MustAdd("10.0.1.0/24", geo.UBC)
	db.MustAdd("216.58.216.0/24", geo.GoogleDriveDC)
	hops := res.Geolocate(db)
	if !hops[0].OK || hops[0].Site.Name != "UBC" {
		t.Fatalf("hop0 geo = %+v", hops[0])
	}
	if hops[1].OK {
		t.Fatal("hidden hop geolocated")
	}
	km := PathKm(hops)
	// UBC -> Mountain View ≈ 1300 km.
	if km < 1200 || km > 1450 {
		t.Fatalf("PathKm = %v", km)
	}
}

// TestMaxTTLTruncates: a chain of 40 hops is traced only to maxTTL.
func TestMaxTTLTruncates(t *testing.T) {
	g := topology.New(fluid.New(simclock.NewEngine()))
	spec := topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.001}
	for i := 0; i <= 40; i++ {
		g.MustAddNode(&topology.Node{Name: fmt.Sprint("n", i), RespondsICMP: true})
		if i > 0 {
			g.MustConnect(fmt.Sprint("n", i-1), fmt.Sprint("n", i), spec)
		}
	}
	res, err := Run(g, "n0", "n40")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != maxTTL || res.Hops[maxTTL-1].Node.Name != fmt.Sprint("n", maxTTL) {
		t.Fatalf("hops = %d, want the first %d", len(res.Hops), maxTTL)
	}
}

func TestNoRouteErrors(t *testing.T) {
	g := topology.New(fluid.New(simclock.NewEngine()))
	g.MustAddNode(&topology.Node{Name: "a"})
	g.MustAddNode(&topology.Node{Name: "b"})
	if _, err := Run(g, "a", "b"); err == nil {
		t.Fatal("trace across disconnected graph succeeded")
	}
}

func TestOverrideChangesTrace(t *testing.T) {
	g := buildGraph()
	// Add an alternate direct edge and pin the route over it.
	g.MustConnect("src", "dst", topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.050})
	g.MustSetOverride("src", "dst")
	res, _ := Run(g, "src", "dst")
	if len(res.Hops) != 1 || res.Hops[0].Node.Name != "dst" {
		t.Fatalf("override trace:\n%s", res.Format())
	}
}
