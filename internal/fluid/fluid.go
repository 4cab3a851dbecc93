// Package fluid is a flow-level ("fluid") wide-area network simulator.
//
// Instead of simulating individual packets, each active transfer is a
// fluid flow over a path of links; every time the set of flows (or the
// capacity available to them) changes, the simulator recomputes a global
// max-min fair allocation — the classic progressive-filling model of TCP
// bandwidth sharing — and reschedules each flow's completion event.
//
// Per-flow rate caps model everything that keeps a real TCP connection
// below its fair share: receive windows, slow-start ramping (driven by
// package tcpmodel), and application pacing. Cross-traffic (package
// xtraffic) modulates the capacity a link has left for foreground flows.
//
// Reallocation is global and bit-exact by contract: every event settles
// every flow, recomputes max-min over the whole network with the float
// operations of the textbook progressive-filling loop in the same order,
// and recomputes every completion time in flow-id order, so replays do
// not depend on how the allocator is implemented. Recomputing only the
// link component an event touches, or skipping flows whose rate did not
// move, would change float rounding and the order of same-time events,
// and is deliberately not done.
package fluid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"detournet/internal/simclock"
)

// Inf is the rate-cap value meaning "uncapped".
var Inf = math.Inf(1)

// Link is a unidirectional network link.
type Link struct {
	id       int
	Name     string
	Capacity float64 // bytes/second at zero cross-traffic
	load     float64 // fraction of Capacity consumed by cross-traffic, [0, maxLoad]

	// FlowCap, when positive, caps every individual flow crossing this
	// link at that rate — the behaviour of a stateful campus firewall
	// doing per-connection inspection, the bottleneck Science DMZ data
	// transfer nodes exist to bypass.
	FlowCap float64

	// PropDelay is the one-way propagation delay contributed by this
	// link in seconds. The fluid allocator ignores it; path RTTs are
	// computed from it by higher layers.
	PropDelay float64

	flows []*Flow // active flows crossing this link, ordered by flow id

	// progressive-filling scratch state: unfrozen entries of flows (a
	// flow counts once per occurrence of this link on its path), and
	// the sum of their rates as of the last freeze pass.
	unfrozen int
	used     float64
}

// maxLoad bounds cross-traffic so foreground flows always make progress;
// a fully starved link would make completion times infinite.
const maxLoad = 0.98

// Available returns the capacity currently left for foreground flows.
func (l *Link) Available() float64 {
	return l.Capacity * (1 - l.load)
}

// Load returns the current cross-traffic fraction.
func (l *Link) Load() float64 { return l.load }

// Utilization returns the fraction of capacity in use right now:
// cross-traffic load plus the allocated rates of every foreground flow
// crossing the link. 0 on a zero-capacity link.
func (l *Link) Utilization() float64 {
	if l.Capacity <= 0 {
		return 0
	}
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
)

// Flow is an in-progress bulk transfer over a fixed path.
type Flow struct {
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
	fire       func()          // completion callback, built once per flow
	completion *simclock.Event // pending completion, rescheduled in place

	// progressive-filling scratch state: the external cap combined with
	// the path's FlowCaps, and whether the flow's rate is settled.
	effCap float64
	frozen bool
}

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

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
	flows    []*Flow // active flows, ordered by id
	nextFlow int
	nextLink int

	// progressive-filling scratch slices, reused across reallocations:
	// the flows still rising and the links that still carry them.
	live    []*Flow
	hotLink []*Link

	// Reallocations counts global rate recomputations, exposed for
	// performance tests and benchmarks.
	Reallocations uint64
}

// New returns an empty network bound to the engine.
func New(eng *simclock.Engine) *Network {
	if eng == nil {
		panic("fluid: nil engine")
	}
	return &Network{eng: eng}
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
	l := &Link{id: n.nextLink, Name: name, Capacity: capacity, PropDelay: propDelay}
	n.nextLink++
	n.links = append(n.links, l)
	return l
}

// SetLinkLoad sets the fraction of a link's capacity consumed by
// cross-traffic and reallocates. The fraction is clamped to [0, 0.98].
func (n *Network) SetLinkLoad(l *Link, fraction float64) {
	if math.IsNaN(fraction) {
		panic("fluid: NaN link load")
	}
	fraction = math.Max(0, math.Min(maxLoad, fraction))
	if fraction == l.load {
		return
	}
	l.load = fraction
	if len(l.flows) > 0 {
		n.reallocate()
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
	n.reallocate()
	return f
}

// attach validates and registers a new flow without reallocating.
func (n *Network) attach(path []*Link, bytes float64, opts FlowOpts) *Flow {
	if len(path) == 0 {
		panic("fluid: empty path")
	}
	if bytes <= 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("fluid: flow of %v bytes", bytes))
	}
	cap := opts.RateCap
	if cap <= 0 {
		cap = Inf
	}
	f := &Flow{
		id:         n.nextFlow,
		Label:      opts.Label,
		path:       path,
		remaining:  bytes,
		cap:        cap,
		lastTouch:  n.eng.Now(),
		startedAt:  n.eng.Now(),
		onComplete: opts.OnComplete,
		onAbort:    opts.OnAbort,
	}
	f.fire = func() { n.complete(f) }
	n.nextFlow++
	n.flows = append(n.flows, f)
	for _, l := range path {
		l.flows = append(l.flows, f)
	}
	return f
}

// SetFlowCap changes a flow's external rate cap (bytes/sec; <=0 means
// uncapped) and reallocates. Calling it on a finished flow is a no-op.
func (n *Network) SetFlowCap(f *Flow, cap float64) {
	if f.state != FlowActive {
		return
	}
	if cap <= 0 {
		cap = Inf
	}
	if cap == f.cap {
		return
	}
	f.cap = cap
	n.reallocate()
}

// CancelFlow aborts an active flow without running its completion
// callback. It reports whether the flow was still active.
func (n *Network) CancelFlow(f *Flow) bool {
	if f.state != FlowActive {
		return false
	}
	f.settleProgress(n.eng.Now())
	f.state = FlowCancelled
	f.finishedAt = n.eng.Now()
	if f.completion != nil {
		n.eng.Cancel(f.completion)
		f.completion = nil
	}
	n.detach(f)
	n.reallocate()
	return true
}

// KillFlow forcibly aborts an active flow — the path failed underneath
// it — and runs its OnAbort callback so the endpoints learn the
// transfer died. It reports whether the flow was still active. Unlike
// CancelFlow (a deliberate local abort that notifies nobody), KillFlow
// models an external failure the sender did not ask for.
func (n *Network) KillFlow(f *Flow) bool {
	if f.state != FlowActive {
		return false
	}
	f.settleProgress(n.eng.Now())
	f.state = FlowCancelled
	f.finishedAt = n.eng.Now()
	if f.completion != nil {
		n.eng.Cancel(f.completion)
		f.completion = nil
	}
	n.detach(f)
	n.reallocate()
	if f.onAbort != nil {
		f.onAbort(f)
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
// positive) and reallocates — the degradation hook for fault injection:
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
		n.reallocate()
	}
}

// Remaining returns the bytes a flow still has to deliver as of now.
func (n *Network) Remaining(f *Flow) float64 {
	if f.state != FlowActive {
		return 0
	}
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

func (n *Network) detach(f *Flow) {
	for _, l := range f.path {
		for i, g := range l.flows {
			if g == f {
				l.flows = append(l.flows[:i], l.flows[i+1:]...)
				break
			}
		}
	}
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
}

// reallocate recomputes the global max-min fair allocation and
// reschedules completion events. It must be called whenever the flow
// set, a link's available capacity, or a flow cap changes.
//
// Every flow is settled and every completion time recomputed, in flow-id
// order, whatever the change touched: the rates and the (time, sequence)
// order of completion events then do not depend on which flows moved.
func (n *Network) reallocate() {
	n.Reallocations++
	now := n.eng.Now()

	// Charge progress under the old rates before changing anything.
	for _, f := range n.flows {
		f.settleProgress(now)
	}

	n.computeMaxMin()

	// Reschedule completions under the new rates. Moving a pending event
	// takes a fresh sequence number, exactly as cancelling it and
	// scheduling a new one would, so event order is the same either way.
	for _, f := range n.flows {
		at := simclock.Infinity
		if f.rate > 0 {
			at = now + simclock.Time(f.remaining/f.rate)
		}
		switch {
		case at == simclock.Infinity:
			if f.completion != nil {
				n.eng.Cancel(f.completion)
				f.completion = nil
			}
		case f.completion != nil:
			n.eng.Reschedule(f.completion, at)
		default:
			f.completion = n.eng.Schedule(at, f.fire)
		}
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
	f.completion = nil
	n.detach(f)
	n.reallocate()
	if f.onComplete != nil {
		f.onComplete(f)
	}
}

// computeMaxMin runs progressive filling with per-flow caps: all unfrozen
// flows' rates rise together; a flow freezes when a link on its path
// saturates or when it reaches its own cap. The result is the unique
// max-min fair allocation.
//
// It performs the float operations of the textbook loop (every round:
// per-link headroom over all links, per-flow cap slack, raise every
// unfrozen rate, freeze) in the same order, so the rates are bit for bit
// the same, without its waste:
//   - every unfrozen flow starts at 0 and receives the same sequence of
//     += delta, so its rate is one shared level;
//   - a link's used sum is taken once per round, over its flows in id
//     order, in the freeze pass; the next round's headroom reuses it,
//     because no rate changes in between;
//   - only links that still carry unfrozen flows are scanned, and only
//     unfrozen flows are visited, from scratch slices reused across calls.
func (n *Network) computeMaxMin() {
	if len(n.flows) == 0 {
		return
	}
	live := n.live[:0]
	for _, f := range n.flows {
		f.rate = 0
		f.frozen = false
		// Effective per-flow ceiling: the external cap combined with any
		// per-flow caps (firewalls) on the path.
		f.effCap = f.cap
		for _, l := range f.path {
			if l.FlowCap > 0 && l.FlowCap < f.effCap {
				f.effCap = l.FlowCap
			}
		}
		live = append(live, f)
	}
	hot := n.hotLink[:0]
	for _, l := range n.links {
		if len(l.flows) > 0 {
			l.unfrozen = len(l.flows)
			l.used = 0
			hot = append(hot, l)
		}
	}
	level := 0.0
	for len(live) > 0 {
		// Smallest headroom-per-flow across links with unfrozen flows,
		// and smallest cap slack across unfrozen flows.
		delta := math.Inf(1)
		for _, l := range hot {
			if d := (l.Available() - l.used) / float64(l.unfrozen); d < delta {
				delta = d
			}
		}
		for _, f := range live {
			if slack := f.effCap - level; slack < delta {
				delta = slack
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
		for _, f := range live {
			f.rate = level
		}
		// Freeze flows at saturated links or at their caps.
		for _, l := range hot {
			if l.unfrozen == 0 {
				continue
			}
			used := 0.0
			for _, f := range l.flows {
				used += f.rate
			}
			l.used = used
			if avail := l.Available(); avail-used <= 1e-9*max(1, avail) {
				for _, f := range l.flows {
					if !f.frozen {
						f.freeze()
					}
				}
			}
		}
		for _, f := range live {
			c := f.effCap
			if !f.frozen && !math.IsInf(c, 1) && c-f.rate <= 1e-12*max(1, c) {
				f.freeze()
			}
		}
		if delta == 0 {
			// No headroom anywhere: freeze everything still live to
			// guarantee termination (their rates stay as allocated).
			for _, f := range live {
				if !f.frozen {
					f.freeze()
				}
			}
		}
		live = slices.DeleteFunc(live, func(f *Flow) bool { return f.frozen })
		hot = slices.DeleteFunc(hot, func(l *Link) bool { return l.unfrozen == 0 })
	}
	n.live, n.hotLink = live, hot
}

// freeze settles the flow's rate, taking it off every link on its path
// (once per occurrence, matching the link's flow list).
func (f *Flow) freeze() {
	f.frozen = true
	for _, l := range f.path {
		l.unfrozen--
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

// SortedFlowLabels returns the labels of active flows in id order; it
// exists for deterministic test assertions and diagnostics.
func (n *Network) SortedFlowLabels() []string {
	out := make([]string, len(n.flows))
	for i, f := range n.flows {
		out[i] = f.Label
	}
	sort.Strings(out)
	return out
}
