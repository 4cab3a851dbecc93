package scenario

import (
	"math/rand"

	"detournet/internal/bgppol"
	"detournet/internal/topology"
)

// Policy-routing mode: instead of the default filtered min-delay router,
// the world can route with the full Gao–Rexford model over the AS-level
// relationships of the 2015 setting. The three observed route pins still
// apply (they model operator configuration the policy model cannot
// derive); everything else follows from who-buys-from-whom.
//
// This mode exists to study the routing layer itself — e.g. that the
// Purdue pathology needs no misconfiguration at all, just a commodity
// provider route tying with the research route — while the default mode
// stays the calibrated reproduction target.

// PaperPolicy returns the AS relationship graph of the paper's setting.
// Domain names match the Node.Domain values of the built topology.
func PaperPolicy() *bgppol.Policy {
	p := bgppol.NewPolicy()
	// Universities buy from their regional research networks.
	p.MustAddCustomerProvider("UBC", "BCNet")
	p.MustAddCustomerProvider("UAlberta", "Cybera")
	p.MustAddCustomerProvider("UMich", "Merit")
	p.MustAddCustomerProvider("Purdue", "Internet2")
	p.MustAddCustomerProvider("UCLA", "CENIC")
	// Regionals buy from the national backbones.
	p.MustAddCustomerProvider("BCNet", "CANARIE")
	p.MustAddCustomerProvider("Cybera", "CANARIE")
	p.MustAddCustomerProvider("Merit", "Internet2")
	// National backbones peer with each other and with the providers.
	p.MustAddPeer("CANARIE", "Internet2")
	p.MustAddPeer("Google", "CANARIE")
	p.MustAddPeer("Google", "Internet2")
	p.MustAddPeer("Google", "CENIC")
	p.MustAddPeer("Microsoft", "CANARIE")
	p.MustAddPeer("Microsoft", "Internet2")
	// PacificWave is deliberately absent: it is an IXP fabric, not an
	// AS, so it never appears in AS paths. The only route through it is
	// the pinned UBC→Google artifact, which models operator/exchange
	// configuration that BGP policy cannot derive.
	// Commodity transit: campuses and backbones buy it for destinations
	// without research peering; the cloud providers buy it too.
	p.MustAddCustomerProvider("Purdue", "ISP")
	p.MustAddCustomerProvider("CANARIE", "Transit")
	p.MustAddCustomerProvider("Merit", "Transit")
	p.MustAddCustomerProvider("CENIC", "Transit")
	p.MustAddCustomerProvider("BCNet", "Transit")
	p.MustAddPeer("ISP", "Transit")
	p.MustAddCustomerProvider("Google", "ISP")
	p.MustAddCustomerProvider("Microsoft", "ISP")
	p.MustAddCustomerProvider("Microsoft", "Transit")
	p.MustAddCustomerProvider("Dropbox", "Transit")
	p.MustAddCustomerProvider("Dropbox", "ISP")
	return p
}

// WithPolicyRouting switches the world to full Gao–Rexford inter-domain
// routing over PaperPolicy (plus the standard route pins).
func WithPolicyRouting() Option {
	return func(c *buildCfg) { c.policyRouting = true }
}

// installPolicyRouting replaces the router after the graph is built.
func (w *World) installPolicyRouting() {
	w.Graph.SetRouter(bgppol.Finder{Policy: PaperPolicy()})
}

// WithDynamicRouting routes the world with the staged-convergence BGP
// layer over PaperPolicy: sessions can be withdrawn and re-announced at
// run time (see faults.RouteChurn), domains adopt changes after
// deterministic per-domain delays, and during the convergence window
// paths can transiently blackhole or loop exactly as real reconvergence
// does. Route pins still apply, but a pin whose domain crossings ride a
// withdrawn session falls through to the (converging) router.
func WithDynamicRouting() Option {
	return func(c *buildCfg) { c.dynamicRouting = true }
}

// routeChurnSeedSalt decorrelates convergence delays from every other
// seeded stream in the world.
const routeChurnSeedSalt = 0x6267700d

// installDynamicRouting replaces the router after the graph is built.
func (w *World) installDynamicRouting() {
	rng := rand.New(rand.NewSource(w.seed ^ routeChurnSeedSalt))
	now := func() float64 { return float64(w.Eng.Now()) }
	dyn := bgppol.NewDynamic(PaperPolicy(), now, rng, 2, 12)
	dyn.AttachBus(w.RouteBus)
	w.Routing = dyn
	w.Graph.SetRouter(bgppol.DynamicFinder{D: dyn})
	// Pins model operator configuration, but they still ride BGP
	// sessions: if a pinned path crosses a withdrawn session boundary,
	// the pin breaks and the pair reconverges with everyone else.
	// Crossings unknown to the policy (the PacificWave IXP fabric) are
	// exempt — those are static exchange configuration.
	w.Graph.SetOverrideVeto(func(hops []*topology.Node) bool {
		for i := 0; i+1 < len(hops); i++ {
			a, b := hops[i].Domain, hops[i+1].Domain
			if a == b {
				continue
			}
			if dyn.SessionKnown(a, b) && !dyn.SessionUp(a, b) {
				return true
			}
		}
		return false
	})
}
