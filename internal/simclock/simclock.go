// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock and an event queue ordered by (time, sequence).
//
// Every other simulation package in this repository schedules work on an
// *Engine rather than on the wall clock, so whole-WAN experiments run in
// microseconds of real time and are bit-reproducible.
package simclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. Fluid-flow rate math is naturally expressed in floating
// point; deterministic event ordering is guaranteed by a monotonically
// increasing sequence number used as a tie-breaker, never by float
// identity tricks.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Infinity is a sentinel time that sorts after every reachable event.
var Infinity = Time(math.Inf(1))

// Event is scheduled work. Events are compared by time first and by
// insertion sequence second, so two events at the same instant always run
// in the order they were scheduled.
//
// Event structs are recycled: a posted event (Post) goes back to the
// engine's free list before its callback runs, and an event handed to
// Release goes back when its sole owner is done with it. Schedule draws
// from that list, so a handle must not be used once released.
type Event struct {
	at     Time
	seq    uint64
	index  int // heap index; -1 once removed
	fn     func()
	fired  bool
	cancel bool
	posted bool // no handle escaped: recycled as soon as it fires
}

// At reports the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// eventHeap is a binary min-heap on (at, seq). Sequence numbers are
// unique, so the pop order is the (at, seq) order whatever the heap's
// internal layout.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i int) bool {
	i0, n := i, len(h)
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// remove takes out and returns the event at index i.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	if n != i {
		old.swap(i, n)
		if !old[:n].down(i) {
			old[:n].up(i)
		}
	}
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	running bool
	free    []*Event // released events, reused by Schedule and Post
	before  []func() // one-shot hooks, run before the queue is next seen
	// MaxEvents bounds a single Run to guard against scheduling loops in
	// buggy models. Zero means no bound.
	MaxEvents uint64
	processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) or at NaN panics: it is always a model bug, and silently
// clamping would hide it. Every time check is written !(at >= now) so
// that NaN, which compares false with everything, fails it.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if !(at >= e.now) {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("simclock: nil event func")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: at, seq: e.seq, fn: fn}
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn}
	}
	e.seq++
	e.queue.push(ev)
	return ev
}

// Post is Schedule for work nobody will cancel, move or re-arm: it
// returns no handle, so the event goes back to the free list as soon
// as it fires. It takes its sequence number exactly as Schedule would.
func (e *Engine) Post(at Time, fn func()) {
	e.Schedule(at, fn).posted = true
}

// Release hands a fired or cancelled event back to the free list that
// Schedule draws from. Only the event's sole owner may call it, and
// the handle is dead afterwards: Cancel, Rearm and a second Release all
// refuse it, and Place panics. Releasing a pending event does nothing.
func (e *Engine) Release(ev *Event) {
	if ev == nil || ev.index >= 0 || ev.fn == nil {
		return
	}
	*ev = Event{index: -1}
	e.free = append(e.free, ev)
}

// After runs fn d seconds from now. Negative d panics via Schedule.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.Schedule(e.now+Time(d), fn)
}

// Cancel removes a pending event. Cancelling an event that already fired
// or was already cancelled is a no-op and reports false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.fired || ev.cancel || ev.index < 0 {
		return false
	}
	ev.cancel = true
	e.queue.remove(ev.index)
	return true
}

// NewEvent returns an unqueued event that runs fn; Place queues it.
func NewEvent(fn func()) *Event { return &Event{index: -1, fn: fn} }

// Claim takes the next sequence number, exactly as Schedule would, and
// queues nothing.
func (e *Engine) Claim() uint64 {
	e.seq++
	return e.seq - 1
}

// Place queues ev at the key (at, seq), where seq came from Claim and no
// other event holds it, moving ev there if it is pending; a new, fired
// or cancelled event is pending again. It panics in the past, as
// Schedule does, and on a released event or an unclaimed number.
func (e *Engine) Place(ev *Event, at Time, seq uint64) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("simclock: place at %v before now %v", at, e.now))
	}
	if ev.fn == nil || seq >= e.seq {
		panic("simclock: place of a released event or an unclaimed sequence number")
	}
	if ev.index >= 0 {
		e.queue.remove(ev.index)
	}
	ev.at, ev.seq, ev.fired, ev.cancel = at, seq, false, false
	e.queue.push(ev)
}

// Rearm queues a fired event again at absolute time at, with the same
// callback, and reports whether it did. A periodic process re-arms its
// one event instead of allocating a new one per period. The event takes
// a fresh sequence number, so it runs exactly where Schedule of the
// same callback at the same moment would have put it. Rearm refuses a
// pending or cancelled event (use Place or Schedule); a re-armed event
// is pending again and can be cancelled or placed. Re-arming in the past
// panics, as Schedule does.
func (e *Engine) Rearm(ev *Event, at Time) bool {
	if ev == nil || !ev.fired || ev.cancel {
		return false
	}
	if !(at >= e.now) {
		panic(fmt.Sprintf("simclock: rearm at %v before now %v", at, e.now))
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.fired = false
	e.queue.push(ev)
	return true
}

// BeforeNext registers fn to run once, before the queue is next seen:
// before Step pops an event, before RunUntil moves the clock to its
// deadline and before Pending counts the queue. Hooks run in the order
// they were registered, at the current time; one may schedule, claim or
// place, but the clock does not move until every hook has run. A model
// that batches its changes within an event settles them in a hook, once.
func (e *Engine) BeforeNext(fn func()) {
	e.before = append(e.before, fn)
}

// settle runs the registered hooks, including any a hook registers.
// Each is taken off the list before it runs, so a hook may call Pending.
func (e *Engine) settle() {
	for len(e.before) > 0 {
		fn := e.before[0]
		n := copy(e.before, e.before[1:])
		e.before[n] = nil
		e.before = e.before[:n]
		fn()
	}
}

// Pending returns the number of events waiting in the queue, after the
// BeforeNext hooks have run.
func (e *Engine) Pending() int {
	e.settle()
	return len(e.queue)
}

// Step runs the BeforeNext hooks, then executes the single next event,
// advancing the clock to its time. It reports whether an event was
// executed.
func (e *Engine) Step() bool {
	e.settle()
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.at
	ev.fired = true
	e.processed++
	fn := ev.fn
	// A posted event has no other owner: it is free again before its
	// callback runs, which may then schedule into it. Nothing below
	// touches ev, because the callback may also release its own event.
	if ev.posted {
		e.Release(ev)
	}
	fn()
	return true
}

// Run executes events until the queue is empty. It returns the final
// virtual time. It panics if MaxEvents is exceeded.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil executes events with time <= deadline and then advances the
// clock to min(deadline, next event time). Events scheduled exactly at
// the deadline do run. The BeforeNext hooks run before each look at the
// queue, so none is left when the clock moves to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("simclock: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.processed
	for e.settle(); len(e.queue) > 0 && e.queue[0].at <= deadline; e.settle() {
		if e.MaxEvents > 0 && e.processed-start >= e.MaxEvents {
			panic(fmt.Sprintf("simclock: exceeded MaxEvents=%d (event loop?)", e.MaxEvents))
		}
		e.Step()
	}
	if deadline != Infinity && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// Advance moves the clock forward by d, running any events that fall in
// the window. It is RunUntil(Now()+d).
func (e *Engine) Advance(d Duration) Time {
	return e.RunUntil(e.now + Time(d))
}
