// Package fluid is a flow-level ("fluid") wide-area network simulator.
//
// Instead of simulating individual packets, each active transfer is a
// fluid flow over a path of links; after the set of flows (or the
// capacity available to them) changes, the simulator recomputes a global
// max-min fair allocation — the classic progressive-filling model of TCP
// bandwidth sharing — and moves its one completion event to the earliest
// finish time.
//
// Per-flow rate caps model everything that keeps a real TCP connection
// below its fair share: receive windows, slow-start ramping (driven by
// package tcpmodel), and application pacing. Cross-traffic (package
// xtraffic) modulates the capacity a link has left for foreground flows.
//
// A link's cross-traffic may be computed lazily by its LoadSource: while
// the link carries no flow, nothing can see its load except the exported
// reads (Load, Available, Utilization), SetLinkLoad and a flow starting
// on it, so each of those first asks the source to Sync. The allocator
// only reads links that carry flows and never syncs.
//
// The network keeps the set of busy links, those carrying at least one
// flow, so the allocator visits them without scanning every link in the
// world. The set is unordered: the allocator's result does not depend on
// the order it visits links in.
//
// Reallocation is global and bit-exact by contract: the network settles
// once per event that changed it, and settling charges every flow's
// progress, recomputes max-min over the whole network with the result of
// the textbook progressive-filling loop, bit for bit, and recomputes
// every completion time in flow-id order, so replays do not depend on how
// the allocator is implemented. The kernel gets there without the
// textbook loop's sums: a link's id-order rate sum lies within a proven
// bound of a running total, and only a decision the bound cannot settle
// sums the link's flows exactly. Recomputing only the link component an
// event touches, or skipping flows whose rate did not move, would change
// float rounding and the order of same-time events, and is deliberately
// not done.
//
// A mutation (StartFlow, SetFlowCap, SetLinkLoad, SetLinkCapacity,
// CancelFlow, KillFlow, a completion) changes the flow set, cap or load
// at once, claims one engine sequence number and marks the allocation
// stale. The network settles before anyone can see the allocation: in a
// simclock BeforeNext hook, before the engine next pops an event, moves
// its clock or counts its queue, and in Rate, Remaining and Utilization.
// So an event's mutations cost one reallocation, with the result of
// reallocating after each of them:
//   - the clock cannot move while the network is stale, so progress is
//     charged once, at the old rates, at the instant an eager
//     reallocation would have charged it;
//   - the completion event is keyed by the number the last mutation
//     claimed, where an eager reallocation would have claimed its block,
//     so it sits in the same place relative to every other event;
//   - no other event runs and no rate is read while the network is
//     stale, so no intermediate allocation could have been seen.
package fluid

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"detournet/internal/simclock"
)

// Inf is the rate-cap value meaning "uncapped".
var Inf = math.Inf(1)

// Link is a unidirectional network link.
type Link struct {
	net      *Network
	id       int
	Name     string
	Capacity float64 // bytes/second at zero cross-traffic
	load     float64 // fraction of Capacity consumed by cross-traffic, [0, maxLoad]

	// FlowCap, when positive, caps every individual flow crossing this
	// link at that rate — the behaviour of a stateful campus firewall
	// doing per-connection inspection, the bottleneck Science DMZ data
	// transfer nodes exist to bypass. A flow reads it when it starts and
	// when SetFlowCap changes its cap, so set it before flows cross the
	// link: a later write binds only flows that start or change cap after it.
	FlowCap float64

	// PropDelay is the one-way propagation delay contributed by this
	// link in seconds. The fluid allocator ignores it; path RTTs are
	// computed from it by higher layers.
	PropDelay float64

	flows   []*Flow    // active flows crossing this link, ordered by flow id
	source  LoadSource // lazy cross-traffic writer, synced while idle; may be nil
	busyIdx int        // index in Network.busy while the link carries flows

	// progressive-filling scratch state: unfrozen entries of flows (a
	// flow counts once per occurrence of this link on its path), and the
	// running sum of the frozen entries' rates, in freeze order.
	unfrozen  int
	frozenSum float64
}

// maxLoad bounds cross-traffic so foreground flows always make progress;
// a fully starved link would make completion times infinite.
const maxLoad = 0.98

// LoadSource is a link's lazy cross-traffic writer. While the link
// carries no flow the source may leave its load stale; Sync must bring
// the load up to the current virtual time (through SetLinkLoad) and keep
// it current from then on, until the link is idle again. Fluid calls
// Sync only on an idle link, before its load is read or written and
// before a flow is attached to it.
type LoadSource interface{ Sync() }

// SetSource installs the link's load source; nil removes it.
func (l *Link) SetSource(s LoadSource) { l.source = s }

// Source returns the link's load source, or nil.
func (l *Link) Source() LoadSource { return l.source }

// sync lets an idle link's load source catch up before the load is seen.
func (l *Link) sync() {
	if l.source != nil && len(l.flows) == 0 {
		l.source.Sync()
	}
}

// Available returns the capacity currently left for foreground flows.
func (l *Link) Available() float64 {
	l.sync()
	return l.avail()
}

// avail is Available without the sync: the allocator reads only links
// that carry flows, whose sources are always current.
func (l *Link) avail() float64 {
	return l.Capacity * (1 - l.load)
}

// Load returns the current cross-traffic fraction.
func (l *Link) Load() float64 {
	l.sync()
	return l.load
}

// Utilization returns the fraction of capacity in use right now:
// cross-traffic load plus the allocated rates of every foreground flow
// crossing the link, settling the network first. 0 on a zero-capacity
// link.
func (l *Link) Utilization() float64 {
	if l.Capacity <= 0 {
		return 0
	}
	l.sync()
	l.net.settle()
	used := l.load * l.Capacity
	for _, f := range l.flows {
		used += f.rate
	}
	return used / l.Capacity
}

// NumFlows returns the number of foreground flows on the link.
func (l *Link) NumFlows() int { return len(l.flows) }

// Flows returns the active foreground flows on the link, in flow-id
// order. The slice is a copy; mutating it does not affect the link.
func (l *Link) Flows() []*Flow {
	out := make([]*Flow, len(l.flows))
	copy(out, l.flows)
	return out
}

// FlowState describes where a flow is in its lifecycle.
type FlowState int

const (
	// FlowActive means the flow is transferring.
	FlowActive FlowState = iota
	// FlowDone means the flow delivered all its bytes.
	FlowDone
	// FlowCancelled means the flow was aborted before completion.
	FlowCancelled
	// flowReleased marks a flow handed back by Release: no mutation
	// applies to it, and a second Release panics.
	flowReleased
)

// Flow is an in-progress bulk transfer over a fixed path.
type Flow struct {
	net   *Network
	id    int
	Label string
	path  []*Link

	remaining  float64 // bytes still to deliver, as of lastTouch
	rate       float64 // current allocated rate, bytes/sec
	cap        float64 // external rate cap (TCP window, pacing)
	lastTouch  simclock.Time
	state      FlowState
	startedAt  simclock.Time
	finishedAt simclock.Time

	onComplete func(*Flow)
	onAbort    func(*Flow)

	// effCap is the external cap combined with the path's FlowCaps, set
	// with cap; frozen is progressive-filling scratch state, whether the
	// flow's rate is settled.
	effCap float64
	frozen bool
}

// Rate returns the flow's current allocated rate in bytes/second,
// settling the network first.
func (f *Flow) Rate() float64 {
	f.net.settle()
	return f.rate
}

// Cap returns the flow's current external rate cap.
func (f *Flow) Cap() float64 { return f.cap }

// State returns the flow's lifecycle state.
func (f *Flow) State() FlowState { return f.state }

// StartedAt returns the virtual time the flow was started.
func (f *Flow) StartedAt() simclock.Time { return f.startedAt }

// FinishedAt returns the virtual completion time; it is meaningful only
// once State is FlowDone or FlowCancelled.
func (f *Flow) FinishedAt() simclock.Time { return f.finishedAt }

// Path returns the flow's links in order.
func (f *Flow) Path() []*Link { return f.path }

// Network owns links and flows and keeps the allocation consistent.
type Network struct {
	eng      *simclock.Engine
	links    []*Link
	busy     []*Link // links carrying at least one flow, unordered
	flows    []*Flow // active flows, ordered by id
	nextFlow int
	nextLink int

	// done, the one completion event, is pending at the earliest
	// completion while any flow can finish; next is that flow.
	done *simclock.Event
	next *Flow

	// stale is set by a mutation and cleared when the network settles;
	// seq is the number the latest mutation claimed. hooked says the
	// engine holds hook, which settles before the queue is next seen.
	stale, hooked bool
	seq           uint64
	hook          func()

	// progressive-filling scratch slices, reused across reallocations:
	// the flows still rising and the links that still carry them.
	live    []*Flow
	hotLink []*Link

	// free holds released flows, handed out again by StartFlow.
	free []*Flow

	// Reallocations counts global rate recomputations (settlings, one
	// per event that changed the network), exposed for performance
	// tests and benchmarks.
	Reallocations uint64
}

// New returns an empty network bound to the engine.
func New(eng *simclock.Engine) *Network {
	if eng == nil {
		panic("fluid: nil engine")
	}
	n := &Network{eng: eng}
	n.done = simclock.NewEvent(func() { n.complete(n.next) })
	n.hook = func() {
		n.hooked = false
		n.settle()
	}
	return n
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *simclock.Engine { return n.eng }

// AddLink creates a link. Capacity is in bytes/second and must be
// positive; propDelay is the one-way propagation delay in seconds.
func (n *Network) AddLink(name string, capacity, propDelay float64) *Link {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fluid: link %q capacity %v", name, capacity))
	}
	if propDelay < 0 {
		panic(fmt.Sprintf("fluid: link %q negative delay", name))
	}
	l := &Link{net: n, id: n.nextLink, Name: name, Capacity: capacity, PropDelay: propDelay}
	n.nextLink++
	n.links = append(n.links, l)
	return l
}

// SetLinkLoad sets the fraction of a link's capacity consumed by
// cross-traffic. The fraction is clamped to [0, 0.98].
// An idle link's load source syncs first, so the write lands after every
// re-sample it had skipped.
func (n *Network) SetLinkLoad(l *Link, fraction float64) {
	if math.IsNaN(fraction) {
		panic("fluid: NaN link load")
	}
	l.sync()
	fraction = max(0, min(maxLoad, fraction))
	if fraction == l.load {
		return
	}
	l.load = fraction
	if len(l.flows) > 0 {
		n.touch()
	}
}

// FlowOpts configures StartFlow.
type FlowOpts struct {
	// Label names the flow in diagnostics.
	Label string
	// RateCap is the initial external cap in bytes/sec; zero means
	// uncapped.
	RateCap float64
	// OnComplete runs (inside the simulation) when the last byte is
	// delivered. It is not called for cancelled flows.
	OnComplete func(*Flow)
	// OnAbort runs (inside the simulation) when the flow is killed by
	// KillFlow — a link failure tearing down the transfer underneath
	// the endpoints. It is not called for CancelFlow (a deliberate
	// local abort) or for completed flows.
	OnAbort func(*Flow)
}

// StartFlow begins transferring bytes over path and returns the flow.
// The path must be non-empty and bytes positive.
func (n *Network) StartFlow(path []*Link, bytes float64, opts FlowOpts) *Flow {
	f := n.attach(path, bytes, opts)
	n.touch()
	return f
}

// attach validates and registers a new flow without marking the
// allocation stale.
func (n *Network) attach(path []*Link, bytes float64, opts FlowOpts) *Flow {
	if len(path) == 0 {
		panic("fluid: empty path")
	}
	if bytes <= 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("fluid: flow of %v bytes", bytes))
	}
	cap := opts.RateCap
	if math.IsNaN(cap) {
		panic("fluid: NaN rate cap")
	}
	if cap <= 0 {
		cap = Inf
	}
	var f *Flow
	if k := len(n.free) - 1; k >= 0 {
		f = n.free[k]
		n.free[k] = nil
		n.free = n.free[:k]
	} else {
		f = new(Flow)
	}
	*f = Flow{
		net:        n,
		id:         n.nextFlow,
		Label:      opts.Label,
		path:       path,
		remaining:  bytes,
		lastTouch:  n.eng.Now(),
		startedAt:  n.eng.Now(),
		onComplete: opts.OnComplete,
		onAbort:    opts.OnAbort,
	}
	f.setCap(cap)
	n.nextFlow++
	n.flows = append(n.flows, f)
	for _, l := range path {
		l.sync()
		if len(l.flows) == 0 {
			l.busyIdx = len(n.busy)
			n.busy = append(n.busy, l)
		}
		l.flows = append(l.flows, f)
	}
	return f
}

// Release hands a finished flow back to the network, which reuses its
// struct for a later StartFlow: the handle is dead afterwards, and
// every read of it is undefined. Only the flow's sole owner may release
// it, once nothing else can still reach it — its callbacks have run and
// no ramp, map or slice keeps it. A hook that was handed the flow, such
// as topology.Graph.OnFlowKilled, sees it only during its call and must
// copy what it keeps. A reused flow takes a fresh id, so
// flow order, rates and events are those of a new allocation. Releasing
// an active flow, or one twice, panics.
func (n *Network) Release(f *Flow) {
	switch {
	case f.state == FlowActive:
		panic("fluid: release of an active flow")
	case f.state == flowReleased:
		panic("fluid: flow released twice")
	case f.net != n:
		panic("fluid: release of another network's flow")
	}
	*f = Flow{state: flowReleased}
	n.free = append(n.free, f)
}

// SetFlowCap changes a flow's external rate cap (bytes/sec; <=0 means
// uncapped; NaN panics). Calling it on a finished flow is a no-op.
func (n *Network) SetFlowCap(f *Flow, cap float64) {
	if math.IsNaN(cap) {
		panic("fluid: NaN rate cap")
	}
	if f.state != FlowActive {
		return
	}
	if cap <= 0 {
		cap = Inf
	}
	if cap == f.cap {
		return
	}
	f.setCap(cap)
	n.touch()
}

// setCap sets the external cap and the effective one: the external cap
// combined with the FlowCaps on the path, read now.
func (f *Flow) setCap(cap float64) {
	f.cap, f.effCap = cap, cap
	for _, l := range f.path {
		if l.FlowCap > 0 && l.FlowCap < f.effCap {
			f.effCap = l.FlowCap
		}
	}
}

// CancelFlow aborts an active flow without running its completion
// callback. It reports whether the flow was still active.
func (n *Network) CancelFlow(f *Flow) bool { return n.abort(f, nil) }

// KillFlow forcibly aborts an active flow — the path failed underneath
// it — and runs its OnAbort callback so the endpoints learn the
// transfer died. It reports whether the flow was still active. Unlike
// CancelFlow (a deliberate local abort that notifies nobody), KillFlow
// models an external failure the sender did not ask for.
func (n *Network) KillFlow(f *Flow) bool { return n.abort(f, f.onAbort) }

// abort cancels an active flow, then runs then (if set) on it.
func (n *Network) abort(f *Flow, then func(*Flow)) bool {
	if f.state != FlowActive {
		return false
	}
	f.settleProgress(n.eng.Now())
	f.state = FlowCancelled
	f.finishedAt = n.eng.Now()
	n.detach(f)
	n.touch()
	if then != nil {
		then(f)
	}
	return true
}

// KillFlowsWhere kills every active flow the predicate accepts (nil
// accepts all), running each victim's OnAbort, and reports how many
// died. The victim set is snapshotted first, so aborts that start new
// flows are not swept up. Hedged transfers use this to cancel the
// losing side of a race by label.
func (n *Network) KillFlowsWhere(pred func(*Flow) bool) int {
	victims := make([]*Flow, 0, len(n.flows))
	for _, f := range n.flows {
		if pred == nil || pred(f) {
			victims = append(victims, f)
		}
	}
	killed := 0
	for _, f := range victims {
		if n.KillFlow(f) {
			killed++
		}
	}
	return killed
}

// KillFlowsLabeled kills every active flow whose Label starts with
// prefix and reports how many died. Transport labels its flows
// "src->dst:port", prefixed "scope|" when the sending process carries a
// flow scope, so "scope|src->dst:" pins one transfer's traffic between
// one endpoint pair — how a multipath driver aborts the losing
// duplicate of a hedged chunk without touching the other paths' flows
// or any other transfer's.
func (n *Network) KillFlowsLabeled(prefix string) int {
	return n.KillFlowsWhere(func(f *Flow) bool {
		return strings.HasPrefix(f.Label, prefix)
	})
}

// SetLinkCapacity changes a link's capacity (bytes/second, must stay
// positive) — the degradation hook for fault injection:
// a brownout halves capacity, recovery restores it.
func (n *Network) SetLinkCapacity(l *Link, capacity float64) {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fluid: link %q capacity %v", l.Name, capacity))
	}
	if capacity == l.Capacity {
		return
	}
	l.Capacity = capacity
	if len(l.flows) > 0 {
		n.touch()
	}
}

// Remaining returns the bytes a flow still has to deliver as of now,
// settling the network first.
func (n *Network) Remaining(f *Flow) float64 {
	if f.state != FlowActive {
		return 0
	}
	n.settle()
	elapsed := float64(n.eng.Now() - f.lastTouch)
	rem := f.remaining - f.rate*elapsed
	if rem < 0 {
		rem = 0
	}
	return rem
}

// ActiveFlows returns the number of active flows in the network.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// settleProgress charges the bytes transferred since lastTouch against
// remaining, as of time now.
func (f *Flow) settleProgress(now simclock.Time) {
	elapsed := float64(now - f.lastTouch)
	if elapsed > 0 && f.rate > 0 {
		f.remaining -= f.rate * elapsed
		if f.remaining < 1e-9 {
			f.remaining = 0
		}
	}
	f.lastTouch = now
}

// unbusy swap-removes an idle link from the busy set.
func (n *Network) unbusy(l *Link) {
	last := len(n.busy) - 1
	moved := n.busy[last]
	n.busy[l.busyIdx] = moved
	moved.busyIdx = l.busyIdx
	n.busy[last] = nil
	n.busy = n.busy[:last]
}

func (n *Network) detach(f *Flow) {
	for _, l := range f.path {
		for i, g := range l.flows {
			if g == f {
				l.flows = append(l.flows[:i], l.flows[i+1:]...)
				break
			}
		}
		if len(l.flows) == 0 {
			n.unbusy(l)
		}
	}
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
}

// touch records a mutation of the flow set, a link's available capacity
// or a flow cap: the allocation is stale until the network settles,
// which the engine makes it do before the queue is next seen. The
// number claimed here keys the completion event: it sits where the
// block an eager reallocation would claim now sits among other events.
func (n *Network) touch() {
	n.seq = n.eng.Claim()
	n.stale = true
	if !n.hooked {
		n.hooked = true
		n.eng.BeforeNext(n.hook)
	}
}

// settle recomputes a stale allocation, once however many mutations the
// event made, and places the network's completion event.
//
// Every flow is settled and every completion time recomputed, in flow-id
// order, whatever the change touched: the rates and the (time, sequence)
// order of completions then do not depend on which flows moved. The one
// event goes to the earliest completion, the first in flow-id order on a
// tie, keyed by the latest mutation's number: every completion mutates,
// so no other completion could run first.
func (n *Network) settle() {
	if !n.stale {
		return
	}
	n.stale = false
	n.Reallocations++
	now := n.eng.Now()
	n.computeMaxMin(now)

	n.next = nil
	first := simclock.Infinity
	for _, f := range n.flows {
		if at := now + simclock.Time(f.remaining/f.rate); f.rate > 0 && at < first {
			n.next, first = f, at
		}
	}
	if n.next == nil {
		n.eng.Cancel(n.done)
	} else {
		n.eng.Place(n.done, first, n.seq)
	}
}

func (n *Network) complete(f *Flow) {
	if f.state != FlowActive {
		return
	}
	f.settleProgress(n.eng.Now())
	f.remaining = 0
	f.state = FlowDone
	f.finishedAt = n.eng.Now()
	n.detach(f)
	n.touch()
	if f.onComplete != nil {
		f.onComplete(f)
	}
}

// computeMaxMin charges every flow's progress at its old rate, as of
// now, then runs progressive filling with per-flow caps: all unfrozen
// flows' rates rise together; a flow freezes when a link on its path
// saturates or when it reaches its own cap. The result is the unique
// max-min fair allocation.
//
// Every rate is bit for bit the textbook loop's (every round: per-link
// headroom over all links, per-flow cap slack, raise every unfrozen
// rate, freeze), but a round costs the hot links plus the flows it
// freezes, not every link's flow list:
//   - every unfrozen flow starts at 0 and receives the same sequence of
//     += delta, so its rate is one shared level, written when it freezes;
//   - subtraction rounds monotonically, so the smallest cap slack is
//     minCap-level, minCap the smallest cap among the live flows;
//   - a link's textbook sum S, its rates added in flow-id order, is
//     bounded without visiting its flows (usedBounds); subtraction and
//     division round monotonically, so the bounds on S bound the link's
//     headroom and decide its saturation test, and only a link whose
//     bounds cannot decide sums its flows (usedAt). The round's delta
//     starts at the smallest upper bound on a headroom or the cap slack,
//     and is lowered by the headroom of each link whose lower bound falls
//     below it;
//   - only links that still carry unfrozen flows are visited, starting
//     from the busy set, and only live flows, from scratch slices reused
//     across calls and compacted in place. Link order does not matter:
//     the smallest headroom is the same in any order, and freezing
//     changes no rate.
func (n *Network) computeMaxMin(now simclock.Time) {
	live := n.live[:0]
	minCap := Inf
	for _, f := range n.flows {
		f.settleProgress(now)
		f.frozen = false
		if f.effCap < minCap {
			minCap = f.effCap
		}
		live = append(live, f)
	}
	hot := append(n.hotLink[:0], n.busy...)
	for _, l := range hot {
		l.unfrozen = len(l.flows)
		l.frozenSum = 0
	}
	level := 0.0
	for len(live) > 0 {
		// Drop the links with no unfrozen flow and take the smallest
		// upper bound, then lower it to the exact minimum over the links
		// whose lower bound is below it. At level 0 every rate is 0, so
		// every bound is exact and the smallest upper bound is the minimum.
		delta := minCap - level
		k := 0
		for _, l := range hot {
			if l.unfrozen == 0 {
				continue
			}
			hot[k] = l
			k++
			sLo, _ := l.usedBounds(level)
			if hi := (l.avail() - sLo) / float64(l.unfrozen); hi < delta {
				delta = hi
			}
		}
		clear(hot[k:])
		hot = hot[:k]
		if level > 0 {
			for _, l := range hot {
				delta = l.lower(level, delta)
			}
		}
		if delta < 0 {
			delta = 0
		}
		if math.IsInf(delta, 1) {
			// Only possible if every unfrozen flow is uncapped and all
			// its links have infinite headroom — links have finite
			// capacity, so this is unreachable.
			panic("fluid: unbounded allocation")
		}
		level += delta
		// Freeze flows at saturated links, then at their caps, or every
		// live flow when there was no headroom anywhere (their rates
		// stay as allocated), which guarantees termination.
		for _, l := range hot {
			if l.unfrozen != 0 && l.saturated(level) {
				for _, f := range l.flows {
					if !f.frozen {
						f.freeze(level)
					}
				}
			}
		}
		k = 0
		minCap = Inf
		for _, f := range live {
			if f.frozen {
				continue
			}
			c := f.effCap
			if delta == 0 || !math.IsInf(c, 1) && c-level <= 1e-12*max(1, c) {
				f.freeze(level)
				continue
			}
			live[k] = f
			k++
			if c < minCap {
				minCap = c
			}
		}
		clear(live[k:])
		live = live[:k]
	}
	n.live, n.hotLink = live, hot
}

// usedBounds returns floats lo <= S <= hi, where S is the textbook sum of
// the link's n rates, added in flow-id order, with every unfrozen flow at
// level. All rates are >= 0, so S errs from their exact total T by at
// most about (n-1)·2⁻⁵³·T, and A = frozenSum + unfrozen·level, whose k
// frozen terms were added in freeze order, by at most about
// (k+1)·2⁻⁵³·T, k < n. The radius (n+4)·2⁻⁵⁰·A is then at least four
// times |S-A|, which absorbs the rounding of the radius and of a±r (in
// the subnormal range sums are exact, and S-A is 0 or at least the
// smallest subnormal).
func (l *Link) usedBounds(level float64) (lo, hi float64) {
	a := l.frozenSum + float64(l.unfrozen)*level
	r := float64(len(l.flows)+4) * 0x1p-50 * a
	return a - r, a + r
}

// lower returns the smaller of delta and the link's textbook headroom
// per unfrozen flow at level, d = (avail-S)/unfrozen. The bounds on S
// bound d between (avail-hi)/unfrozen and (avail-lo)/unfrozen, so the
// link sums its flows only when that lower bound is below delta and the
// two differ.
func (l *Link) lower(level, delta float64) float64 {
	sLo, sHi := l.usedBounds(level)
	avail, u := l.avail(), float64(l.unfrozen)
	d := (avail - sHi) / u
	if d >= delta {
		return delta
	}
	if d != (avail-sLo)/u {
		d = (avail - l.usedAt(level)) / u
	}
	if d < delta {
		return d
	}
	return delta
}

// saturated is the textbook freeze test at level,
// avail-S <= 1e-9·max(1, avail), summing the flows only when the bounds
// on S do not decide it.
func (l *Link) saturated(level float64) bool {
	avail := l.avail()
	tol := 1e-9 * max(1, avail)
	lo, hi := l.usedBounds(level)
	switch {
	case avail-lo <= tol:
		return true
	case avail-hi > tol:
		return false
	}
	return avail-l.usedAt(level) <= tol
}

// usedAt is the textbook sum S: the link's rates in flow-id order, with
// every unfrozen flow at level.
func (l *Link) usedAt(level float64) float64 {
	used := 0.0
	for _, f := range l.flows {
		if f.frozen {
			used += f.rate
		} else {
			used += level
		}
	}
	return used
}

// freeze settles the flow's rate at level, taking it off every link on
// its path and adding it to their frozen sums (once per occurrence,
// matching the link's flow list).
func (f *Flow) freeze(level float64) {
	f.frozen = true
	f.rate = level
	for _, l := range f.path {
		l.unfrozen--
		l.frozenSum += level
	}
}

// PathDelay sums the propagation delay of a path, in seconds.
func PathDelay(path []*Link) float64 {
	var d float64
	for _, l := range path {
		d += l.PropDelay
	}
	return d
}

// BottleneckCapacity returns the smallest available capacity on a path.
func BottleneckCapacity(path []*Link) float64 {
	if len(path) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, l := range path {
		if a := l.Available(); a < m {
			m = a
		}
	}
	return m
}

// SortedFlowLabels returns the labels of active flows, sorted; it
// exists for deterministic test assertions and diagnostics.
func (n *Network) SortedFlowLabels() []string {
	out := make([]string, len(n.flows))
	for i, f := range n.flows {
		out[i] = f.Label
	}
	sort.Strings(out)
	return out
}
