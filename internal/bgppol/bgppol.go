// Package bgppol implements inter-domain policy routing in the
// Gao–Rexford model: domains (autonomous systems) are related as
// customer/provider or peer, routes must be valley-free, and route
// preference is customer > peer > provider, then shortest AS path, then
// a deterministic lexicographic tie-break.
//
// The paper's routing inefficiencies are artifacts of exactly this layer
// — traffic between two nearby hosts crossing a distant or rate-limited
// exchange because of peering relationships — so experiments route over
// a Policy installed as the topology's PathFinder, plus the handful of
// explicit per-pair overrides observed in the paper's traceroutes.
package bgppol

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"detournet/internal/topology"
)

// RouteType classifies how a domain reaches a destination, in increasing
// preference order.
type RouteType int

const (
	// NoRoute means the destination is unreachable under policy.
	NoRoute RouteType = iota
	// ProviderRoute is learned from a provider (least preferred).
	ProviderRoute
	// PeerRoute is learned from a settlement-free peer.
	PeerRoute
	// CustomerRoute is learned from a customer (most preferred).
	CustomerRoute
	// SelfRoute is the destination's own domain.
	SelfRoute
)

func (t RouteType) String() string {
	switch t {
	case ProviderRoute:
		return "provider"
	case PeerRoute:
		return "peer"
	case CustomerRoute:
		return "customer"
	case SelfRoute:
		return "self"
	default:
		return "none"
	}
}

// Policy holds the domain relationship graph.
type Policy struct {
	domains   map[string]bool
	order     []string
	providers map[string][]string // domain -> its providers (sorted)
	customers map[string][]string // domain -> its customers (sorted)
	peers     map[string][]string // domain -> its peers (sorted)

	// RoutesTo is called per transfer on the hot path; the result only
	// changes when a relationship does, so it is memoized per destination
	// and invalidated by every mutator.
	memoMu sync.Mutex
	memo   map[string]map[string]Route
}

// NewPolicy returns an empty relationship graph.
func NewPolicy() *Policy {
	return &Policy{
		domains:   make(map[string]bool),
		providers: make(map[string][]string),
		customers: make(map[string][]string),
		peers:     make(map[string][]string),
	}
}

// invalidate drops the memoized routing tables; every mutator calls it.
func (p *Policy) invalidate() {
	p.memoMu.Lock()
	p.memo = nil
	p.memoMu.Unlock()
}

// AddDomain registers a domain name. Adding twice is a no-op.
func (p *Policy) AddDomain(name string) {
	if name == "" {
		panic("bgppol: empty domain name")
	}
	if !p.domains[name] {
		p.domains[name] = true
		p.order = append(p.order, name)
		p.invalidate()
	}
}

// Domains returns all registered domains in insertion order.
func (p *Policy) Domains() []string { return append([]string(nil), p.order...) }

func insertSorted(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	if i < len(xs) && xs[i] == s {
		return xs
	}
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = s
	return xs
}

func removeSorted(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	if i >= len(xs) || xs[i] != s {
		return xs
	}
	return append(xs[:i:i], xs[i+1:]...)
}

func contains(xs []string, s string) bool {
	i := sort.SearchStrings(xs, s)
	return i < len(xs) && xs[i] == s
}

// AddCustomerProvider records that customer buys transit from provider.
// Both domains are registered implicitly.
func (p *Policy) AddCustomerProvider(customer, provider string) error {
	if customer == provider {
		return fmt.Errorf("bgppol: %q cannot be its own provider", customer)
	}
	if contains(p.peers[customer], provider) {
		return fmt.Errorf("bgppol: %s and %s are already peers", customer, provider)
	}
	if contains(p.providers[provider], customer) {
		return fmt.Errorf("bgppol: relationship cycle between %s and %s", customer, provider)
	}
	p.AddDomain(customer)
	p.AddDomain(provider)
	p.providers[customer] = insertSorted(p.providers[customer], provider)
	p.customers[provider] = insertSorted(p.customers[provider], customer)
	p.invalidate()
	return nil
}

// RemoveCustomerProvider withdraws a transit relationship. The domains
// stay registered; only the session between them disappears.
func (p *Policy) RemoveCustomerProvider(customer, provider string) error {
	if !contains(p.providers[customer], provider) {
		return fmt.Errorf("bgppol: %s does not buy transit from %s", customer, provider)
	}
	p.providers[customer] = removeSorted(p.providers[customer], provider)
	p.customers[provider] = removeSorted(p.customers[provider], customer)
	p.invalidate()
	return nil
}

// AddPeer records a settlement-free peering between a and b.
func (p *Policy) AddPeer(a, b string) error {
	if a == b {
		return fmt.Errorf("bgppol: %q cannot peer with itself", a)
	}
	if contains(p.providers[a], b) || contains(p.providers[b], a) {
		return fmt.Errorf("bgppol: %s and %s already have a transit relationship", a, b)
	}
	p.AddDomain(a)
	p.AddDomain(b)
	p.peers[a] = insertSorted(p.peers[a], b)
	p.peers[b] = insertSorted(p.peers[b], a)
	p.invalidate()
	return nil
}

// RemovePeer withdraws a peering session between a and b.
func (p *Policy) RemovePeer(a, b string) error {
	if !contains(p.peers[a], b) {
		return fmt.Errorf("bgppol: %s and %s are not peers", a, b)
	}
	p.peers[a] = removeSorted(p.peers[a], b)
	p.peers[b] = removeSorted(p.peers[b], a)
	p.invalidate()
	return nil
}

// Relationship describes how two domains are (or are not) connected.
type Relationship int

const (
	// RelNone means no BGP session between the two domains.
	RelNone Relationship = iota
	// RelPeer is a settlement-free peering.
	RelPeer
	// RelCustomer means the first domain buys transit from the second.
	RelCustomer
	// RelProvider means the first domain sells transit to the second.
	RelProvider
)

// Relationship reports how a relates to b.
func (p *Policy) Relationship(a, b string) Relationship {
	switch {
	case contains(p.peers[a], b):
		return RelPeer
	case contains(p.providers[a], b):
		return RelCustomer
	case contains(p.customers[a], b):
		return RelProvider
	default:
		return RelNone
	}
}

// Clone returns an independent copy of the relationship graph with a
// cold memo, for staged-convergence snapshots.
func (p *Policy) Clone() *Policy {
	np := &Policy{
		domains:   make(map[string]bool, len(p.domains)),
		order:     append([]string(nil), p.order...),
		providers: make(map[string][]string, len(p.providers)),
		customers: make(map[string][]string, len(p.customers)),
		peers:     make(map[string][]string, len(p.peers)),
	}
	for d := range p.domains {
		np.domains[d] = true
	}
	for d, xs := range p.providers {
		np.providers[d] = append([]string(nil), xs...)
	}
	for d, xs := range p.customers {
		np.customers[d] = append([]string(nil), xs...)
	}
	for d, xs := range p.peers {
		np.peers[d] = append([]string(nil), xs...)
	}
	return np
}

// MustAddCustomerProvider panics on error; for static policy tables.
func (p *Policy) MustAddCustomerProvider(customer, provider string) {
	if err := p.AddCustomerProvider(customer, provider); err != nil {
		panic(err)
	}
}

// MustAddPeer panics on error; for static policy tables.
func (p *Policy) MustAddPeer(a, b string) {
	if err := p.AddPeer(a, b); err != nil {
		panic(err)
	}
}

// Route is one domain's best route towards a destination domain.
type Route struct {
	Type    RouteType
	NextHop string // next domain; empty for SelfRoute/NoRoute
	Len     int    // AS-path length (0 for self)
}

// RoutesTo computes every domain's best route to dst under Gao–Rexford
// export and preference rules, with deterministic tie-breaking. The
// returned map is memoized and shared: callers must not mutate it.
func (p *Policy) RoutesTo(dst string) (map[string]Route, error) {
	p.memoMu.Lock()
	if cached, ok := p.memo[dst]; ok {
		p.memoMu.Unlock()
		return cached, nil
	}
	p.memoMu.Unlock()
	best, err := p.computeRoutesTo(dst)
	if err != nil {
		return nil, err
	}
	p.memoMu.Lock()
	if p.memo == nil {
		p.memo = make(map[string]map[string]Route)
	}
	p.memo[dst] = best
	p.memoMu.Unlock()
	return best, nil
}

func (p *Policy) computeRoutesTo(dst string) (map[string]Route, error) {
	if !p.domains[dst] {
		return nil, fmt.Errorf("bgppol: unknown destination domain %q", dst)
	}
	best := make(map[string]Route, len(p.domains))
	best[dst] = Route{Type: SelfRoute}

	// Phase 1 — customer routes: BFS from dst up provider edges. A domain
	// x has a customer route iff there is an all-customer chain from x
	// down to dst; x learns it from the chain's first hop.
	type qitem struct {
		dom string
		len int
	}
	queue := []qitem{{dst, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, prov := range p.providers[cur.dom] {
			if r, ok := best[prov]; ok {
				// Already has a customer (or self) route; keep shorter /
				// lexicographically smaller.
				if r.Type == SelfRoute || r.Len < cur.len+1 ||
					(r.Len == cur.len+1 && r.NextHop <= cur.dom) {
					continue
				}
			}
			best[prov] = Route{Type: CustomerRoute, NextHop: cur.dom, Len: cur.len + 1}
			queue = append(queue, qitem{prov, cur.len + 1})
		}
	}

	// Phase 2 — peer routes: a domain exports only customer/self routes
	// to peers.
	peerRoutes := make(map[string]Route)
	for _, dom := range p.order {
		if _, ok := best[dom]; ok {
			continue
		}
		bestPeer := Route{Type: NoRoute, Len: math.MaxInt32}
		for _, pe := range p.peers[dom] {
			r, ok := best[pe]
			if !ok || (r.Type != CustomerRoute && r.Type != SelfRoute) {
				continue
			}
			cand := Route{Type: PeerRoute, NextHop: pe, Len: r.Len + 1}
			if cand.Len < bestPeer.Len || (cand.Len == bestPeer.Len && cand.NextHop < bestPeer.NextHop) {
				bestPeer = cand
			}
		}
		if bestPeer.Type == PeerRoute {
			peerRoutes[dom] = bestPeer
		}
	}
	for dom, r := range peerRoutes {
		best[dom] = r
	}

	// Phase 3 — provider routes: providers export their best route to
	// customers; uphill chains may be arbitrarily long, so run a
	// Dijkstra-style relaxation over customer->provider edges.
	for {
		changed := false
		// Deterministic sweep order.
		for _, dom := range p.order {
			if r, ok := best[dom]; ok && r.Type != ProviderRoute {
				continue // customer/peer/self routes always win
			}
			cand := Route{Type: NoRoute, Len: math.MaxInt32}
			for _, prov := range p.providers[dom] {
				r, ok := best[prov]
				if !ok {
					continue
				}
				c := Route{Type: ProviderRoute, NextHop: prov, Len: r.Len + 1}
				if c.Len < cand.Len || (c.Len == cand.Len && c.NextHop < cand.NextHop) {
					cand = c
				}
			}
			if cand.Type == ProviderRoute {
				if cur, ok := best[dom]; !ok || cand.Len < cur.Len ||
					(cand.Len == cur.Len && cand.NextHop < cur.NextHop) {
					best[dom] = cand
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return best, nil
}

// DomainPath returns the domain-level AS path from src to dst, inclusive.
func (p *Policy) DomainPath(src, dst string) ([]string, error) {
	if !p.domains[src] {
		return nil, fmt.Errorf("bgppol: unknown source domain %q", src)
	}
	routes, err := p.RoutesTo(dst)
	if err != nil {
		return nil, err
	}
	var path []string
	at := src
	for {
		path = append(path, at)
		r, ok := routes[at]
		if !ok {
			return nil, fmt.Errorf("bgppol: no policy-compliant route %s -> %s", src, dst)
		}
		if r.Type == SelfRoute {
			return path, nil
		}
		at = r.NextHop
		if len(path) > len(p.order)+1 {
			return nil, fmt.Errorf("bgppol: routing loop computing %s -> %s", src, dst)
		}
	}
}

// ValleyFree reports whether a domain path obeys Gao–Rexford: zero or
// more uphill (customer->provider) edges, at most one peer edge, then
// zero or more downhill (provider->customer) edges.
func (p *Policy) ValleyFree(path []string) bool {
	const (
		up = iota
		peered
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		switch {
		case contains(p.providers[a], b): // uphill
			if state != up {
				return false
			}
		case contains(p.peers[a], b): // the single peer edge
			if state != up {
				return false
			}
			state = peered
		case contains(p.customers[a], b): // downhill
			state = down
		default:
			return false // no relationship at all
		}
	}
	return true
}

// Finder routes across a topology.Graph using this policy at the domain
// level and hot-potato routing inside each domain: from the current
// ingress the packet exits at the nearest (by intra-domain delay) border
// router that connects to the next domain.
type Finder struct {
	Policy *Policy
}

// Path implements topology.PathFinder.
func (f Finder) Path(g *topology.Graph, src, dst *topology.Node) ([]*topology.Node, error) {
	if f.Policy == nil {
		return nil, fmt.Errorf("bgppol: Finder with nil policy")
	}
	if src.Domain == "" || dst.Domain == "" {
		return nil, fmt.Errorf("bgppol: node without a domain (%s, %s)", src.Name, dst.Name)
	}
	doms, err := f.Policy.DomainPath(src.Domain, dst.Domain)
	if err != nil {
		return nil, err
	}
	return expandDomainPath(g, src, dst, doms)
}

// expandDomainPath turns a domain-level AS path into node hops using
// hot-potato routing inside each domain. Shared by the static Finder
// and the staged-convergence DynamicFinder.
func expandDomainPath(g *topology.Graph, src, dst *topology.Node, doms []string) ([]*topology.Node, error) {
	full := []*topology.Node{src}
	cur := src
	for i := 0; i+1 < len(doms); i++ {
		nextDom := doms[i+1]
		seg, exit, err := nearestBorder(g, cur, doms[i], nextDom)
		if err != nil {
			return nil, fmt.Errorf("bgppol: %s->%s: %w", doms[i], nextDom, err)
		}
		full = append(full, seg[1:]...) // intra-domain hops to the border
		full = append(full, exit)       // cross into the next domain
		cur = exit
	}
	if cur != dst {
		seg, err := intraPath(g, cur, dst, dst.Domain)
		if err != nil {
			return nil, fmt.Errorf("bgppol: within %s: %w", dst.Domain, err)
		}
		full = append(full, seg[1:]...)
	}
	return full, nil
}

// nearestBorder finds the shortest intra-domain path from start to a
// router in domain dom that has an edge into domain next, returning the
// path and the first node on the far side. One search from start gives
// every candidate's distance, the same left-to-right sum of hop delays
// a per-candidate search would; equal distances go to the
// lexicographically smaller far-side node.
func nearestBorder(g *topology.Graph, start *topology.Node, dom, next string) ([]*topology.Node, *topology.Node, error) {
	t, err := inDomain(dom).Run(g, start, nil)
	if err != nil {
		return nil, nil, err
	}
	var border, exit *topology.Node
	cost := math.Inf(1)
	t.Settled(func(n *topology.Node, d float64) { // settled nodes are dom's
		var far *topology.Node
		for _, e := range g.Edges(n.Name) {
			if e.To.Domain == next {
				far = e.To
				break // edges are sorted; first is the deterministic pick
			}
		}
		if far == nil {
			return
		}
		if d < cost || (d == cost && far.Name < exit.Name) {
			border, exit, cost = n, far, d
		}
	})
	if exit == nil {
		return nil, nil, fmt.Errorf("no border router towards %s", next)
	}
	return t.Path(border), exit, nil
}

// intraPath is the delay-shortest path from src to dst that stays in
// one domain's nodes.
func intraPath(g *topology.Graph, src, dst *topology.Node, dom string) ([]*topology.Node, error) {
	t, err := inDomain(dom).Run(g, src, dst)
	if err != nil {
		return nil, err
	}
	if p := t.Path(dst); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("no intra-domain route %s -> %s in %s", src.Name, dst.Name, dom)
}

// inDomain is the intra-domain search: delay-weighted, confined to dom's
// nodes. It has no edge filter, so administratively down edges stay
// usable inside a domain (TestIntraDomainUsesDownEdges pins this).
func inDomain(dom string) topology.Search {
	return topology.Search{Node: func(n *topology.Node) bool { return n.Domain == dom }}
}
