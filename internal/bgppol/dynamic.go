// Dynamic routing: incremental withdraw/announce events with staged
// per-domain convergence. A withdrawn or re-announced BGP session does
// not update the internet atomically — each domain adopts the new
// routing table after its own deterministic propagation delay, and
// while the RIBs disagree the data path can hit exactly the anomalies
// real reconvergence produces: transient blackholes (a stale RIB
// forwards to a next hop whose session is gone) and forwarding loops
// (two domains pointing at each other until TTL expiry).
package bgppol

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"detournet/internal/topology"
)

// Typed anomalies surfaced by DomainPathAt during convergence windows.
// Their messages deliberately contain stable substrings ("blackhole",
// "ttl expired", "no route") because agent relay errors cross the wire
// as strings and are re-classified by substring on the far side.
var (
	// ErrBlackhole: a stale RIB forwarded towards a withdrawn session;
	// the packet is dropped at the session boundary.
	ErrBlackhole = errors.New("bgppol: transient blackhole (withdrawn next hop)")
	// ErrLoop: inconsistent RIBs formed a forwarding loop; the packet
	// died of TTL expiry.
	ErrLoop = errors.New("bgppol: forwarding loop (ttl expired)")
	// ErrNoRoute: the source's own RIB has no route to the destination.
	ErrNoRoute = errors.New("bgppol: no route to destination domain")
)

// EventKind distinguishes routing-plane event directions.
type EventKind int

const (
	// EventWithdraw removes a session (or link) from service.
	EventWithdraw EventKind = iota
	// EventAnnounce restores it.
	EventAnnounce
)

func (k EventKind) String() string {
	if k == EventWithdraw {
		return "withdraw"
	}
	return "announce"
}

// Event is one routing-plane change, published on the Bus. Session
// events (BGP withdraw/announce) carry the two domain names; link
// events (data-plane flaps and pinned-path flips published by the
// fault injector) carry node names instead. ConvergedBy is the virtual
// time by which the last domain will have adopted the change — for
// link events, which have no convergence window, it equals At.
type Event struct {
	Kind             EventKind
	DomainA, DomainB string // session scope (empty for link events)
	FromNode, ToNode string // link scope (empty for session events)
	At               float64
	ConvergedBy      float64
}

func (ev Event) String() string {
	if ev.DomainA != "" {
		return fmt.Sprintf("%s session %s~%s t=%.3f converged=%.3f",
			ev.Kind, ev.DomainA, ev.DomainB, ev.At, ev.ConvergedBy)
	}
	return fmt.Sprintf("%s link %s-%s t=%.3f", ev.Kind, ev.FromNode, ev.ToNode, ev.At)
}

// Bus fans routing events out to subscribers (route caches, schedulers,
// reports) the instant they happen — push-based invalidation instead of
// waiting out cache TTLs.
type Bus struct {
	mu   sync.Mutex
	subs []func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn for every future event. Subscribers run
// synchronously in publish order and must not block.
func (b *Bus) Subscribe(fn func(Event)) {
	b.mu.Lock()
	b.subs = append(b.subs, fn)
	b.mu.Unlock()
}

// Publish delivers ev to every subscriber.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	subs := make([]func(Event), len(b.subs))
	copy(subs, b.subs)
	b.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// Dynamic layers withdraw/announce events over a base Policy. Every
// event produces a new immutable policy snapshot; each domain adopts
// snapshot i at its own time adoptAt[domain][i] (the two session
// endpoints immediately, everyone else after a propagation delay drawn
// from the seeded RNG), so the RIB a domain forwards with is a pure
// function of the event log and the clock — fully deterministic and
// replayable.
type Dynamic struct {
	mu         sync.Mutex
	now        func() float64
	rng        *rand.Rand
	dmin, dmax float64
	bus        *Bus

	versions []*Policy            // versions[0] is the base policy
	adoptAt  map[string][]float64 // domain -> adoption time per version
	events   []Event

	// epoch versions DomainPathAt's answers: it holds while the clock
	// stays in [epochLo, epochHi), the span between two adoption times,
	// and no snapshot is applied.
	epoch            uint64
	epochLo, epochHi float64

	// The DynamicFinder's hot-potato expansions by node pair, one entry
	// per AS path seen, valid for graph memoG at generation memoGen.
	memoG   *topology.Graph
	memoGen uint64
	memo    map[[2]*topology.Node][]expansion
}

// expansion is one memoized expandDomainPath result.
type expansion struct {
	doms []string
	path []*topology.Node
	err  error
}

// NewDynamic wraps base in a staged-convergence layer. now supplies the
// virtual clock; per-domain propagation delays are drawn uniformly from
// [delayMin, delayMax) seconds using rng, in fixed domain order.
func NewDynamic(base *Policy, now func() float64, rng *rand.Rand, delayMin, delayMax float64) *Dynamic {
	if delayMax < delayMin {
		delayMax = delayMin
	}
	d := &Dynamic{
		now:      now,
		rng:      rng,
		dmin:     delayMin,
		dmax:     delayMax,
		versions: []*Policy{base},
		adoptAt:  make(map[string][]float64),
		epochHi:  math.Inf(-1), // the first Epoch call opens epoch 1
	}
	for _, dom := range base.Domains() {
		d.adoptAt[dom] = []float64{0}
	}
	return d
}

// AttachBus makes d publish every session event on bus.
func (d *Dynamic) AttachBus(bus *Bus) { d.bus = bus }

// Current returns the latest policy snapshot — the ground truth every
// domain is converging towards.
func (d *Dynamic) Current() *Policy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.versions[len(d.versions)-1]
}

// Events returns the event log so far.
func (d *Dynamic) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.events...)
}

// Converging reports whether the a~b session (domains in either order)
// is inside a withdraw's convergence window at now: its latest event is
// a withdraw whose ConvergedBy is still ahead.
func (d *Dynamic) Converging(a, b string, now float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.events) - 1; i >= 0; i-- {
		ev := d.events[i]
		if (ev.DomainA == a && ev.DomainB == b) || (ev.DomainA == b && ev.DomainB == a) {
			return ev.Kind == EventWithdraw && now < ev.ConvergedBy
		}
	}
	return false
}

// SessionUp reports whether the a~b session exists in the latest
// snapshot (the session itself is either up or down everywhere; what
// converges lazily is who has heard).
func (d *Dynamic) SessionUp(a, b string) bool {
	return d.Current().Relationship(a, b) != RelNone
}

// SessionKnown reports whether a~b has ever been a session in any
// snapshot — used to tell "withdrawn" apart from "never a BGP session"
// (static pins may cross non-BGP hand-offs like an IXP fabric).
func (d *Dynamic) SessionKnown(a, b string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.versions {
		if p.Relationship(a, b) != RelNone {
			return true
		}
	}
	return false
}

// WithdrawSession takes the a~b BGP session down (peer or transit, in
// either order) and starts staged reconvergence.
func (d *Dynamic) WithdrawSession(a, b string) error {
	return d.apply(EventWithdraw, a, b, func(p *Policy) error {
		switch p.Relationship(a, b) {
		case RelPeer:
			return p.RemovePeer(a, b)
		case RelCustomer:
			return p.RemoveCustomerProvider(a, b)
		case RelProvider:
			return p.RemoveCustomerProvider(b, a)
		default:
			return fmt.Errorf("bgppol: no session %s~%s to withdraw", a, b)
		}
	})
}

// AnnounceSession restores the a~b session with the relationship it
// last had before withdrawal.
func (d *Dynamic) AnnounceSession(a, b string) error {
	d.mu.Lock()
	var rel Relationship
	for i := len(d.versions) - 1; i >= 0 && rel == RelNone; i-- {
		rel = d.versions[i].Relationship(a, b)
	}
	d.mu.Unlock()
	if rel == RelNone {
		return fmt.Errorf("bgppol: %s~%s was never a session", a, b)
	}
	return d.apply(EventAnnounce, a, b, func(p *Policy) error {
		if p.Relationship(a, b) != RelNone {
			return fmt.Errorf("bgppol: session %s~%s already up", a, b)
		}
		switch rel {
		case RelPeer:
			return p.AddPeer(a, b)
		case RelCustomer:
			return p.AddCustomerProvider(a, b)
		default:
			return p.AddCustomerProvider(b, a)
		}
	})
}

// apply clones the latest snapshot, mutates it, and schedules every
// domain's adoption time. The two session endpoints adopt immediately
// (they originated the UPDATE); everyone else after a propagation
// delay drawn in fixed domain order so the schedule is deterministic.
func (d *Dynamic) apply(kind EventKind, a, b string, mut func(*Policy) error) error {
	d.mu.Lock()
	cur := d.versions[len(d.versions)-1]
	np := cur.Clone()
	if err := mut(np); err != nil {
		d.mu.Unlock()
		return err
	}
	now := d.now()
	converged := now
	for _, dom := range np.Domains() {
		delay := 0.0
		if dom != a && dom != b {
			delay = d.dmin + d.rng.Float64()*(d.dmax-d.dmin)
		}
		d.adoptAt[dom] = append(d.adoptAt[dom], now+delay)
		if now+delay > converged {
			converged = now + delay
		}
	}
	d.versions = append(d.versions, np)
	d.epochHi = math.Inf(-1) // a new snapshot ends the epoch
	ev := Event{Kind: kind, DomainA: a, DomainB: b, At: now, ConvergedBy: converged}
	d.events = append(d.events, ev)
	bus := d.bus
	d.mu.Unlock()
	if bus != nil {
		bus.Publish(ev)
	}
	return nil
}

// ribFor returns the policy snapshot domain dom forwards with right
// now: the newest version it has adopted. Adoption of version i implies
// knowledge of every earlier event (snapshots chain), so a domain whose
// delay for an old event exceeds a newer event's can skip straight to
// the newer table. Callers hold d.mu.
func (d *Dynamic) ribFor(dom string, now float64) *Policy {
	times := d.adoptAt[dom]
	for i := len(times) - 1; i >= 0; i-- {
		if times[i] <= now {
			return d.versions[i]
		}
	}
	return d.versions[0]
}

// Epoch versions DomainPathAt: while it returns the same value, every
// DomainPathAt answer, path or error, stays the same. DomainPathAt is a
// pure function of the snapshots, their adoption times and the clock,
// so the epoch advances only when a snapshot is applied or the clock
// crosses an adoption time.
func (d *Dynamic) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	if now < d.epochLo || now >= d.epochHi {
		d.epoch++
		d.epochLo, d.epochHi = math.Inf(-1), math.Inf(1)
		for _, times := range d.adoptAt {
			for _, t := range times {
				if t <= now {
					d.epochLo = max(d.epochLo, t)
				} else {
					d.epochHi = min(d.epochHi, t)
				}
			}
		}
	}
	return d.epoch
}

// DomainPathAt walks the AS path a packet takes from src to dst right
// now, each domain forwarding by its own (possibly stale) RIB. During
// convergence this is where the anomalies live: a hop across a
// withdrawn session is a blackhole, and a walk longer than the domain
// count is a loop killed by TTL.
func (d *Dynamic) DomainPathAt(src, dst string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	latest := d.versions[len(d.versions)-1]
	path := []string{src}
	at := src
	ttl := len(latest.order) + 1
	for at != dst {
		rib := d.ribFor(at, now)
		routes, err := rib.RoutesTo(dst)
		if err != nil {
			return nil, err
		}
		r, ok := routes[at]
		if !ok || r.Type == NoRoute {
			if at == src {
				return nil, fmt.Errorf("bgppol: %s -> %s: %w", src, dst, ErrNoRoute)
			}
			return nil, fmt.Errorf("bgppol: %s -> %s dropped at %s: %w", src, dst, at, ErrBlackhole)
		}
		next := r.NextHop
		// The session itself is down everywhere the moment it is
		// withdrawn; a stale RIB still pointing at it blackholes here.
		if latest.Relationship(at, next) == RelNone {
			return nil, fmt.Errorf("bgppol: %s -> %s dropped at %s~%s: %w", src, dst, at, next, ErrBlackhole)
		}
		path = append(path, next)
		at = next
		if len(path) > ttl {
			return nil, fmt.Errorf("bgppol: %s -> %s via %v: %w", src, dst, path[:4], ErrLoop)
		}
	}
	return path, nil
}

// DynamicFinder routes across a topology.Graph with the staged RIBs:
// what Finder is to a frozen Policy, this is to a converging one. It is
// a topology.EpochRouter: its routes hold while the graph's Gen and
// D's Epoch do, so Graph.RoutedLinks memoizes them.
type DynamicFinder struct {
	D *Dynamic
}

// RouteEpoch implements topology.EpochRouter.
func (f DynamicFinder) RouteEpoch() uint64 {
	if f.D == nil {
		return 0 // Path always fails
	}
	return f.D.Epoch()
}

// Path implements topology.PathFinder.
func (f DynamicFinder) Path(g *topology.Graph, src, dst *topology.Node) ([]*topology.Node, error) {
	if f.D == nil {
		return nil, fmt.Errorf("bgppol: DynamicFinder with nil Dynamic")
	}
	if src.Domain == "" || dst.Domain == "" {
		return nil, fmt.Errorf("bgppol: node without a domain (%s, %s)", src.Name, dst.Name)
	}
	doms, err := f.D.DomainPathAt(src.Domain, dst.Domain)
	if err != nil {
		return nil, err
	}
	return f.D.expand(g, src, dst, doms)
}

// expand is expandDomainPath through d's memo. The AS path moves with
// the virtual clock, so DomainPathAt runs on every call; the node-level
// expansion of one AS path depends only on g's nodes, edges and link
// delays, which g.Gen() versions, so the memo is dropped whenever the
// graph or its generation changes. Callers get their own copy of the
// path.
func (d *Dynamic) expand(g *topology.Graph, src, dst *topology.Node, doms []string) ([]*topology.Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.memoG != g || d.memoGen != g.Gen() {
		d.memoG, d.memoGen = g, g.Gen()
		d.memo = make(map[[2]*topology.Node][]expansion)
	}
	k := [2]*topology.Node{src, dst}
	for _, e := range d.memo[k] {
		if slices.Equal(e.doms, doms) {
			return slices.Clone(e.path), e.err
		}
	}
	path, err := expandDomainPath(g, src, dst, doms)
	d.memo[k] = append(d.memo[k], expansion{doms: doms, path: path, err: err})
	return slices.Clone(path), err
}
