// Package topology models the wide-area network graph of the case study:
// hosts and routers (with the IPs and reverse-DNS names that appear in
// the paper's traceroutes), unidirectional links realized as fluid links,
// per-domain ownership, and route computation.
//
// Route selection is pluggable: the default is delay-weighted shortest
// paths (Search), package bgppol layers valley-free inter-domain policy
// on top, and explicit per-pair overrides pin the handful of paths the
// paper observed directly (e.g. UBC's PacificWave hand-off to Google).
package topology

import (
	"fmt"
	"math"
	"sort"

	"detournet/internal/fluid"
	"detournet/internal/geo"
)

// NodeKind distinguishes end hosts from routers.
type NodeKind int

const (
	// Host is a traffic source or sink (client machines, DTNs, servers).
	Host NodeKind = iota
	// Router only forwards.
	Router
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "router"
}

// Node is a host or router in the topology.
type Node struct {
	Name     string // unique key, e.g. "ubc-pl" or "vncv1rtr2"
	Hostname string // reverse-DNS name shown by traceroute
	IP       string // primary interface address
	Kind     NodeKind
	Domain   string // owning network domain, e.g. "CANARIE"
	Site     geo.Site

	// RespondsICMP controls traceroute visibility; false renders the
	// paper's "* * *" hops (Fig 6 hops 2 and 10).
	RespondsICMP bool

	g   *Graph // the graph AddNode registered the node in
	idx int    // dense index in g.order, the route search's array slot
}

// Edge is one direction of an adjacency, carrying the fluid link that
// transfers bytes over it.
type Edge struct {
	From, To *Node
	Link     *fluid.Link
	down     bool
}

// Down reports whether the edge is administratively down.
func (e *Edge) Down() bool { return e.down }

// LinkSpec describes one direction of a link.
type LinkSpec struct {
	// CapacityBps is the capacity in bytes per second (not bits).
	CapacityBps float64
	// DelaySec is one-way propagation delay in seconds. If zero it is
	// derived from the endpoints' site coordinates.
	DelaySec float64
	// PerFlowCapBps, when positive, caps each flow crossing the link
	// individually (a stateful-firewall model; see fluid.Link.FlowCap).
	PerFlowCapBps float64
}

// Graph is the network topology bound to a fluid network.
type Graph struct {
	fl    *fluid.Network
	nodes map[string]*Node
	order []*Node   // insertion order, for determinism; Node.idx indexes it
	out   [][]*Edge // adjacency by Node.idx, sorted by target name

	overrides    map[pair][]string // explicit routed node paths
	overridesOff map[pair]bool     // administratively suspended pins
	overrideVeto func(hops []*Node) bool

	router PathFinder

	// routes memoizes RoutedLinks per pair under an EpochRouter, for as
	// long as gen equals routesGen and the router's epoch routesEpoch.
	routes      map[pair]routed
	routesGen   uint64
	routesEpoch uint64

	// gen counts structural changes (nodes, edges, edge up/down flips);
	// route memos keyed on it stay valid while it holds still.
	gen uint64

	// OnFlowKilled, when set, observes every in-flight fluid flow torn
	// down by SetLinkState taking an edge down, KillEdgeFlows, or
	// KillDomainBoundaryFlows. It runs inside the simulation, after the
	// flow's own OnAbort callback. The flow is valid only during the
	// call: its owner may release it afterwards (fluid.Network.Release),
	// and a later flow reuses the struct, so a hook that keeps anything
	// must copy the fields it wants, not the pointer.
	OnFlowKilled func(from, to string, f *fluid.Flow)
}

type pair struct{ src, dst string }

// routed is one memoized RoutedLinks answer.
type routed struct {
	links []*fluid.Link
	err   error
}

// PathFinder computes a node path from src to dst. Implementations must
// be deterministic.
type PathFinder interface {
	Path(g *Graph, src, dst *Node) ([]*Node, error)
}

// EpochRouter is a PathFinder that versions its own routes: while the
// graph's Gen and the router's RouteEpoch both hold still, every pair's
// route, or its error, stays the same. MinDelay and MinDelayFiltered
// report a constant epoch, since their routes follow the graph alone.
type EpochRouter interface {
	PathFinder
	RouteEpoch() uint64
}

// New returns an empty graph over the fluid network. The default router
// is MinDelay.
func New(fl *fluid.Network) *Graph {
	if fl == nil {
		panic("topology: nil fluid network")
	}
	return &Graph{
		fl:        fl,
		nodes:     make(map[string]*Node),
		overrides: make(map[pair][]string),
		router:    MinDelay{},
	}
}

// Fluid returns the underlying fluid network.
func (g *Graph) Fluid() *fluid.Network { return g.fl }

// SetRouter installs the route computation strategy.
func (g *Graph) SetRouter(r PathFinder) {
	if r == nil {
		panic("topology: nil router")
	}
	g.router = r
	g.routes = nil
}

// AddNode registers a node. Duplicate names are an error, and so is a
// node already registered in a graph: its dense index belongs to that
// graph.
func (g *Graph) AddNode(n *Node) (*Node, error) {
	if n == nil || n.Name == "" {
		return nil, fmt.Errorf("topology: node must have a name")
	}
	if n.g != nil {
		return nil, fmt.Errorf("topology: node %q already belongs to a graph", n.Name)
	}
	if _, ok := g.nodes[n.Name]; ok {
		return nil, fmt.Errorf("topology: duplicate node %q", n.Name)
	}
	if n.Hostname == "" {
		n.Hostname = n.Name
	}
	n.g, n.idx = g, len(g.order)
	g.nodes[n.Name] = n
	g.order = append(g.order, n)
	g.out = append(g.out, nil)
	g.gen++
	return n, nil
}

// MustAddNode is AddNode for static topologies; it panics on error.
func (g *Graph) MustAddNode(n *Node) *Node {
	node, err := g.AddNode(n)
	if err != nil {
		panic(err)
	}
	return node
}

// Gen returns the graph's structural generation. AddNode, ConnectAsym
// and every SetLinkState that flips an edge move it; nothing else does.
// A route computed from the graph's nodes, edges, edge states and link
// propagation delays stays valid for as long as Gen holds still.
func (g *Graph) Gen() uint64 { return g.gen }

// Node returns a node by name.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// MustNode returns a node by name, panicking if absent.
func (g *Graph) MustNode(name string) *Node {
	n, ok := g.nodes[name]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q", name))
	}
	return n
}

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.order))
	copy(out, g.order)
	return out
}

// Connect adds a bidirectional adjacency with symmetric specs.
func (g *Graph) Connect(a, b string, spec LinkSpec) error {
	if err := g.ConnectAsym(a, b, spec); err != nil {
		return err
	}
	return g.ConnectAsym(b, a, spec)
}

// MustConnect is Connect, panicking on error.
func (g *Graph) MustConnect(a, b string, spec LinkSpec) {
	if err := g.Connect(a, b, spec); err != nil {
		panic(err)
	}
}

// ConnectAsym adds one direction of an adjacency.
func (g *Graph) ConnectAsym(from, to string, spec LinkSpec) error {
	fn, ok := g.nodes[from]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", from)
	}
	tn, ok := g.nodes[to]
	if !ok {
		return fmt.Errorf("topology: unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("topology: self-link at %q", from)
	}
	for _, e := range g.out[fn.idx] {
		if e.To == tn {
			return fmt.Errorf("topology: duplicate edge %s->%s", from, to)
		}
	}
	if spec.CapacityBps <= 0 {
		return fmt.Errorf("topology: edge %s->%s capacity %v", from, to, spec.CapacityBps)
	}
	delay := spec.DelaySec
	if delay == 0 {
		delay = geo.PropagationDelay(fn.Site.Coord, tn.Site.Coord)
		if delay == 0 {
			delay = 0.0002 // same-site wire
		}
	}
	link := g.fl.AddLink(fmt.Sprintf("%s->%s", from, to), spec.CapacityBps, delay)
	link.FlowCap = spec.PerFlowCapBps
	out := append(g.out[fn.idx], &Edge{From: fn, To: tn, Link: link})
	sort.Slice(out, func(i, j int) bool { return out[i].To.Name < out[j].To.Name })
	g.out[fn.idx] = out
	g.gen++
	return nil
}

// MustConnectAsym is ConnectAsym, panicking on error.
func (g *Graph) MustConnectAsym(from, to string, spec LinkSpec) {
	if err := g.ConnectAsym(from, to, spec); err != nil {
		panic(err)
	}
}

// Edges returns the out-edges of a node, sorted by target name.
func (g *Graph) Edges(name string) []*Edge {
	n, ok := g.nodes[name]
	if !ok {
		return nil
	}
	return g.out[n.idx]
}

// Edge returns the directed edge from->to.
func (g *Graph) Edge(from, to string) (*Edge, bool) {
	for _, e := range g.Edges(from) {
		if e.To.Name == to {
			return e, true
		}
	}
	return nil, false
}

// SetLinkState marks one direction of an adjacency up or down. Down
// edges are excluded from route computation, their fluid link is
// crushed to a trickle so any flow started before the teardown below
// lands would stall rather than silently completing, and — the part a
// routing change alone cannot express — every in-flight fluid flow
// traversing the edge is killed, running each flow's OnAbort callback
// and then the graph's OnFlowKilled hook. This is the primary
// failure-injection entry point for resilience tests. It reports
// whether the edge exists.
func (g *Graph) SetLinkState(from, to string, up bool) bool {
	e, ok := g.Edge(from, to)
	if !ok {
		return false
	}
	if e.down == up {
		g.gen++
	}
	e.down = !up
	if up {
		g.fl.SetLinkLoad(e.Link, 0)
		return true
	}
	g.fl.SetLinkLoad(e.Link, 1) // clamped to the max load internally
	for _, f := range e.Link.Flows() {
		if g.fl.KillFlow(f) && g.OnFlowKilled != nil {
			g.OnFlowKilled(from, to, f)
		}
	}
	return true
}

// SetOverride pins the route from src to dst to the exact node sequence
// hops (which must start at src, end at dst, and follow existing edges).
// Overrides take precedence over the installed Router and are
// direction-specific.
func (g *Graph) SetOverride(hops ...string) error {
	if len(hops) < 2 {
		return fmt.Errorf("topology: override needs at least 2 hops")
	}
	for i := 0; i+1 < len(hops); i++ {
		if _, ok := g.Edge(hops[i], hops[i+1]); !ok {
			return fmt.Errorf("topology: override hop %s->%s has no edge", hops[i], hops[i+1])
		}
	}
	g.overrides[pair{hops[0], hops[len(hops)-1]}] = append([]string(nil), hops...)
	return nil
}

// MustSetOverride is SetOverride, panicking on error.
func (g *Graph) MustSetOverride(hops ...string) {
	if err := g.SetOverride(hops...); err != nil {
		panic(err)
	}
}

// Override returns the pinned hop sequence for src->dst, if one exists
// (enabled or not).
func (g *Graph) Override(src, dst string) ([]string, bool) {
	hops, ok := g.overrides[pair{src, dst}]
	if !ok {
		return nil, false
	}
	return append([]string(nil), hops...), true
}

// SetOverrideEnabled suspends or restores one pinned route without
// forgetting it — the churn model's "the hand-off flipped away and
// back". While disabled the pair routes through the installed Router.
// It reports whether the override exists.
func (g *Graph) SetOverrideEnabled(src, dst string, enabled bool) bool {
	if _, ok := g.overrides[pair{src, dst}]; !ok {
		return false
	}
	if g.overridesOff == nil {
		g.overridesOff = make(map[pair]bool)
	}
	if enabled {
		delete(g.overridesOff, pair{src, dst})
	} else {
		g.overridesOff[pair{src, dst}] = true
	}
	return true
}

// SetOverrideVeto installs a hook consulted before any pinned route is
// used; returning true makes the pair fall through to the Router. The
// routing plane uses it to break pins whose domain crossings ride a
// withdrawn BGP session.
func (g *Graph) SetOverrideVeto(veto func(hops []*Node) bool) {
	g.overrideVeto = veto
}

// KillEdgeFlows kills every in-flight fluid flow on the from->to edge
// (without taking the link down), running abort callbacks and the
// OnFlowKilled hook. It returns the number of flows killed.
func (g *Graph) KillEdgeFlows(from, to string) int {
	e, ok := g.Edge(from, to)
	if !ok {
		return 0
	}
	n := 0
	for _, f := range e.Link.Flows() {
		if g.fl.KillFlow(f) {
			if g.OnFlowKilled != nil {
				g.OnFlowKilled(from, to, f)
			}
			n++
		}
	}
	return n
}

// KillDomainBoundaryFlows kills every in-flight flow crossing the
// a~b domain boundary in either direction — the data-plane half of a
// BGP session withdrawal, where the forwarding adjacency disappears
// under whatever traffic was riding it. It returns the number of flows
// killed.
func (g *Graph) KillDomainBoundaryFlows(a, b string) int {
	n := 0
	for _, out := range g.out {
		for _, e := range out {
			ad, bd := e.From.Domain, e.To.Domain
			if (ad == a && bd == b) || (ad == b && bd == a) {
				n += g.KillEdgeFlows(e.From.Name, e.To.Name)
			}
		}
	}
	return n
}

// Path returns the routed node sequence from src to dst, honouring
// overrides first and the installed Router otherwise.
func (g *Graph) Path(src, dst string) ([]*Node, error) {
	s, ok := g.nodes[src]
	if !ok {
		return nil, fmt.Errorf("topology: unknown src %q", src)
	}
	d, ok := g.nodes[dst]
	if !ok {
		return nil, fmt.Errorf("topology: unknown dst %q", dst)
	}
	if src == dst {
		return []*Node{s}, nil
	}
	if hops, ok := g.overrides[pair{src, dst}]; ok && !g.overridesOff[pair{src, dst}] && g.overrideUsable(hops) {
		out := make([]*Node, len(hops))
		for i, h := range hops {
			out[i] = g.nodes[h]
		}
		return out, nil
	}
	return g.router.Path(g, s, d)
}

// overrideUsable reports whether every edge of a pinned path is up and
// the veto hook (if any) allows it; otherwise the override falls
// through to the installed Router so failover can route around the
// failure.
func (g *Graph) overrideUsable(hops []string) bool {
	for i := 0; i+1 < len(hops); i++ {
		if e, ok := g.Edge(hops[i], hops[i+1]); !ok || e.down {
			return false
		}
	}
	if g.overrideVeto != nil {
		nodes := make([]*Node, len(hops))
		for i, h := range hops {
			nodes[i] = g.nodes[h]
		}
		if g.overrideVeto(nodes) {
			return false
		}
	}
	return true
}

// LinkPath converts a routed node sequence into the fluid links it
// traverses, the form StartFlow consumes.
func (g *Graph) LinkPath(nodes []*Node) ([]*fluid.Link, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("topology: link path needs at least 2 nodes")
	}
	out := make([]*fluid.Link, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		e, ok := g.Edge(nodes[i].Name, nodes[i+1].Name)
		if !ok {
			return nil, fmt.Errorf("topology: no edge %s->%s", nodes[i].Name, nodes[i+1].Name)
		}
		out = append(out, e.Link)
	}
	return out, nil
}

// RoutedLinks combines Path and LinkPath. The returned slice may be
// shared with later calls and must not be modified.
//
// Under an EpochRouter a pair's answer, links or error, is memoized
// until Gen or the router's epoch moves, or SetRouter installs another
// router. A pair with a pinned override, enabled or not, is never
// memoized, and neither is any pair under a router that reports no
// epoch, since its weights may read anything.
func (g *Graph) RoutedLinks(src, dst string) ([]*fluid.Link, error) {
	k := pair{src, dst}
	r, memo := g.router.(EpochRouter)
	if _, pinned := g.overrides[k]; pinned {
		memo = false
	}
	if memo {
		if ep := r.RouteEpoch(); g.routesGen != g.gen || g.routesEpoch != ep {
			clear(g.routes)
			g.routesGen, g.routesEpoch = g.gen, ep
		}
		if rt, ok := g.routes[k]; ok {
			return rt.links, rt.err
		}
	}
	nodes, err := g.Path(src, dst)
	var links []*fluid.Link
	if err == nil {
		links, err = g.LinkPath(nodes)
	}
	if memo {
		if g.routes == nil {
			g.routes = make(map[pair]routed)
		}
		g.routes[k] = routed{links, err}
	}
	return links, err
}

// RTT returns the round-trip propagation delay between two nodes along
// the currently routed forward and reverse paths.
func (g *Graph) RTT(a, b string) (float64, error) {
	fwd, err := g.RoutedLinks(a, b)
	if err != nil {
		return 0, err
	}
	rev, err := g.RoutedLinks(b, a)
	if err != nil {
		return 0, err
	}
	return fluid.PathDelay(fwd) + fluid.PathDelay(rev), nil
}

// MinDelay is the default PathFinder: shortest paths by link
// propagation delay, with deterministic tie-breaking (see Search).
type MinDelay struct{}

// Path implements PathFinder.
func (MinDelay) Path(g *Graph, src, dst *Node) ([]*Node, error) {
	return route(g, src, dst, nil, nil)
}

// RouteEpoch implements EpochRouter: the routes follow the graph alone.
func (MinDelay) RouteEpoch() uint64 { return 0 }

// EdgeFilter decides whether a route from src to dst may use edge e.
type EdgeFilter func(e *Edge, src, dst *Node) bool

// MinDelayFiltered is MinDelay restricted to edges the filter admits —
// the hook for lightweight routing policy such as "provider (stub)
// domains do not carry transit traffic", which on the real Internet is
// enforced by BGP export rules (see package bgppol for the full model).
// The filter must be a fixed function of its arguments: RoutedLinks
// memoizes the routes it gives under a constant epoch (see there).
type MinDelayFiltered struct {
	Allow EdgeFilter
}

// Path implements PathFinder.
func (r MinDelayFiltered) Path(g *Graph, src, dst *Node) ([]*Node, error) {
	if r.Allow == nil {
		return nil, fmt.Errorf("topology: MinDelayFiltered with nil filter")
	}
	return route(g, src, dst, nil, r.Allow)
}

// RouteEpoch implements EpochRouter: the routes follow the graph alone.
func (MinDelayFiltered) RouteEpoch() uint64 { return 0 }

// NoStubTransit returns an EdgeFilter that keeps routes out of the given
// stub domains except when the route originates or terminates there.
func NoStubTransit(stubDomains ...string) EdgeFilter {
	stubs := make(map[string]bool, len(stubDomains))
	for _, d := range stubDomains {
		stubs[d] = true
	}
	return func(e *Edge, src, dst *Node) bool {
		d := e.To.Domain
		if !stubs[d] {
			return true
		}
		return d == src.Domain || d == dst.Domain
	}
}

// WeightFunc scores an edge for a route search; lower is preferred.
type WeightFunc func(e *Edge) float64

// route is the routers' search: down edges are never used, and allow,
// when set, vets every other edge.
func route(g *Graph, src, dst *Node, w WeightFunc, allow EdgeFilter) ([]*Node, error) {
	t, err := Search{Weight: w, Edge: func(e *Edge) bool {
		return !e.down && (allow == nil || allow(e, src, dst))
	}}.Run(g, src, dst)
	if err != nil {
		return nil, err
	}
	if p := t.Path(dst); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("topology: no route %s -> %s", src.Name, dst.Name)
}

// Search is single-source shortest-path search (Dijkstra) over a Graph's
// dense node indices. Extract-min is a linear scan in node insertion
// order and relaxation needs a strictly shorter distance, so of equally
// short paths the search keeps the one it found first: ties are
// deterministic. Topologies here have tens of nodes, where the scan is
// cheaper than a heap.
type Search struct {
	// Weight scores an edge; nil means the link's propagation delay. A
	// negative weight fails the search.
	Weight WeightFunc
	// Node admits the nodes the search may enter; nil admits all. A
	// source it rejects reaches nothing.
	Node func(n *Node) bool
	// Edge admits the edges the search may relax; nil admits all,
	// down edges included.
	Edge func(e *Edge) bool
}

// Tree is a finished search: the distance to every settled node and the
// predecessor links that rebuild its path from the source.
type Tree struct {
	g     *Graph
	src   *Node
	slots []slot // by Node.idx
}

type slot struct {
	dist    float64
	prev    int32 // predecessor's Node.idx
	settled bool
}

// Run searches g from src until dst is settled or, when dst is nil,
// until every node src reaches is. Both nodes must belong to g. A node
// settled before the search stops has its final distance and path.
func (s Search) Run(g *Graph, src, dst *Node) (Tree, error) {
	for _, n := range [2]*Node{src, dst} {
		if n != nil && n.g != g {
			return Tree{}, fmt.Errorf("topology: node %q is not in this graph", n.Name)
		}
	}
	const unreached = math.MaxFloat64
	t := Tree{g: g, src: src, slots: make([]slot, len(g.order))}
	for i := range t.slots {
		t.slots[i] = slot{dist: unreached, prev: -1}
	}
	if s.Node != nil && !s.Node(src) {
		return t, nil
	}
	t.slots[src.idx].dist = 0
	for {
		cur, best := -1, unreached
		for i := range t.slots {
			if sl := &t.slots[i]; !sl.settled && sl.dist < best {
				cur, best = i, sl.dist
			}
		}
		if cur < 0 {
			return t, nil
		}
		t.slots[cur].settled = true
		if dst != nil && cur == dst.idx {
			return t, nil
		}
		for _, e := range g.out[cur] {
			if (s.Edge != nil && !s.Edge(e)) || (s.Node != nil && !s.Node(e.To)) {
				continue
			}
			w := e.Link.PropDelay
			if s.Weight != nil {
				w = s.Weight(e)
			}
			if w < 0 {
				return Tree{}, fmt.Errorf("topology: negative weight on %s->%s", e.From.Name, e.To.Name)
			}
			if to := &t.slots[e.To.idx]; best+w < to.dist {
				to.dist, to.prev = best+w, int32(cur)
			}
		}
	}
}

// Settled calls fn with every settled node and its distance, in the
// graph's insertion order, without copying the node list.
func (t Tree) Settled(fn func(n *Node, dist float64)) {
	for i := range t.slots {
		if sl := &t.slots[i]; sl.settled {
			fn(t.g.order[i], sl.dist)
		}
	}
}

// Path returns the node path from the source to n, or nil when n was
// not settled.
func (t Tree) Path(n *Node) []*Node {
	if n.g != t.g || !t.slots[n.idx].settled {
		return nil
	}
	k := 1
	for i := n.idx; i != t.src.idx; i = int(t.slots[i].prev) {
		k++
	}
	out := make([]*Node, k)
	for i := n.idx; k > 0; i = int(t.slots[i].prev) {
		k--
		out[k] = t.g.order[i]
	}
	return out
}

// PathNames renders a node path as names, for tests and diagnostics.
func PathNames(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}
