//go:build go1.23

// The constraint is for iter.Pull (Go 1.23); go.mod stays at go 1.22.

// Package simproc layers cooperative blocking processes over the
// discrete-event engine, in the style of SimPy: protocol code (SDK
// clients, servers, relays) is written as ordinary sequential Go that
// sleeps and awaits on *virtual* time, while the engine interleaves all
// processes deterministically.
//
// Each process is a runtime coroutine (iter.Pull): exactly one of the
// engine driver or a single process runs at any moment, and control
// moves by an explicit coroutine switch that never goes through the Go
// scheduler. This keeps the simulation single-threaded, so no model
// state needs locking and runs are bit-reproducible.
//
// A runner's processes live until they return or until the driver
// calls Runner.Close, which unwinds every process still parked (its
// defers run) and ends every coroutine the runner made. Server loops
// that park forever by design hold their whole world reachable until
// then.
package simproc

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"sort"

	"detournet/internal/simclock"
)

// Runner couples an engine with a set of processes.
type Runner struct {
	eng    *simclock.Engine
	parked map[*Proc]string // parked process -> what it waits on
	nextID int
	idle   []*coro // coroutines whose process returned, for Go to reuse
	coros  []*coro // every coroutine made, for Close to stop
	closed bool
}

// New returns a Runner over the engine.
func New(eng *simclock.Engine) *Runner {
	if eng == nil {
		panic("simproc: nil engine")
	}
	return &Runner{eng: eng, parked: make(map[*Proc]string)}
}

// Engine returns the underlying engine.
func (r *Runner) Engine() *simclock.Engine { return r.eng }

// Proc is one cooperative process, run as a coroutine. Its methods must
// only be called from the process itself (the function passed to Go).
type Proc struct {
	r     *Runner
	id    int
	name  string
	scope string
	// c is the coroutine running the process, resume the one event
	// callback that switches to it, and ev the event that last queued
	// resume, re-armed for the next wake once it has fired. All three
	// are cleared when the process returns and c moves on to other
	// processes.
	c      *coro
	resume func()
	ev     *simclock.Event
}

// coro is a runtime coroutine that runs processes one after another.
// When its process returns it waits in Runner.idle for the next Go
// instead of exiting: a process costs no goroutine start, and the race
// detector, which keeps the state of every exited coroutine, stays
// small.
type coro struct {
	// next switches into the coroutine and returns true once its
	// process has returned, false when the process parks; yield
	// switches back out with that report, and returns false once stop
	// has ended the coroutine.
	next  func() (bool, bool)
	yield func(bool) bool
	stop  func()
	fn    func(*Proc) // the process to start on the next switch in
	p     *Proc
}

// closing is the panic value park raises in a process whose runner is
// closing; coro.run recovers it and only it, so the process unwinds
// through its defers and its coroutine ends quietly.
type closing struct{}

// Scope returns the process's flow scope (empty by default).
func (p *Proc) Scope() string { return p.scope }

// SetScope tags the process with a flow scope — an opaque string the
// transport layer prepends to the labels of flows this process starts,
// so a driver can cancel exactly one logical transfer's traffic (a
// multipath hedge abort) without matching another transfer's flows
// between the same endpoints. Server processes acting on behalf of a
// scoped peer should adopt the peer's scope for the duration and
// restore their own afterwards.
func (p *Proc) SetScope(scope string) { p.scope = scope }

// Now returns the current virtual time.
func (p *Proc) Now() simclock.Time { return p.r.eng.Now() }

// Runner returns the runner the process belongs to.
func (p *Proc) Runner() *Runner { return p.r }

// Go schedules fn to start as a new process at the current virtual time.
// It may be called from the driver (before Run) or from inside another
// process. Go on a closed runner panics.
func (r *Runner) Go(name string, fn func(p *Proc)) *Proc {
	if r.closed {
		panic(fmt.Sprintf("simproc: Go(%q) on a closed runner", name))
	}
	p := &Proc{r: r, id: r.nextID, name: name}
	r.nextID++
	if n := len(r.idle); n > 0 {
		p.c = r.idle[n-1]
		r.idle[n-1] = nil
		r.idle = r.idle[:n-1]
	} else {
		c := new(coro)
		c.next, c.stop = iter.Pull(func(yield func(bool) bool) {
			c.yield = yield
			for {
				c.run()
				if !yield(true) {
					return
				}
			}
		})
		r.coros = append(r.coros, c)
		p.c = c
	}
	p.c.fn, p.c.p = fn, p
	p.resume = func() { r.handoff(p) }
	p.resumeAt(r.eng.Now())
	return p
}

// run runs the coroutine's current process to its return. It drops the
// coroutine's references first, so an idle coroutine keeps nothing the
// process function captured alive.
func (c *coro) run() {
	fn, p := c.fn, c.p
	c.fn, c.p = nil, nil
	defer func() {
		if v := recover(); v != nil && v != (closing{}) {
			panic(fmt.Sprintf("simproc: process %s panicked: %v\n%s", p.name, v, debug.Stack()))
		}
	}()
	fn(p)
}

// handoff switches to p's coroutine and returns once p parks or
// returns. It must run in engine context (inside an event callback).
func (r *Runner) handoff(p *Proc) {
	if returned, _ := p.c.next(); returned {
		r.idle = append(r.idle, p.c)
		// p.ev is the event running this handoff: fired, and owned by
		// nothing else, so it goes back to the engine.
		r.eng.Release(p.ev)
		p.c, p.resume, p.ev = nil, nil, nil
	}
}

// park switches back to the engine and returns when resumed. why
// describes what the process waits on, for deadlock diagnostics. Once
// Close has stopped the coroutine, yield returns false at once, and
// park panics closing{} instead of returning: the process unwinds, also
// when one of its defers parks again.
func (p *Proc) park(why string) {
	p.r.parked[p] = why
	resumed := p.c.yield(false)
	delete(p.r.parked, p)
	if !resumed {
		panic(closing{})
	}
}

// wake schedules p to resume at the current virtual time. Must be called
// while the engine or another process holds control.
func (p *Proc) wake() { p.resumeAt(p.r.eng.Now()) }

// resumeAt queues p's resume at virtual time t. It re-arms p's event
// once that has fired and schedules a new one while it is still pending
// (a second wake before the first ran), so either way the resume takes
// the sequence number Schedule would give it. A closed runner queues
// nothing: the processes it stopped have nothing left to resume.
func (p *Proc) resumeAt(t simclock.Time) {
	if p.r.closed {
		return
	}
	if !p.r.eng.Rearm(p.ev, t) {
		p.ev = p.r.eng.Schedule(t, p.resume)
	}
}

// Sleep suspends the process for d seconds of virtual time. Negative d
// panics; zero is allowed and yields to other work at the same instant.
func (p *Proc) Sleep(d simclock.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simproc: negative sleep %v", d))
	}
	p.resumeAt(p.r.eng.Now() + simclock.Time(d))
	// A sleeper's wake event is always queued, so Run never reports it
	// as deadlocked and the reason needs no detail.
	p.park("sleep")
}

// Run drives the engine until no events remain. If processes are still
// parked when the queue drains, the simulation has deadlocked and Run
// panics with the list of stuck processes and what they wait on.
func (r *Runner) Run() simclock.Time {
	t := r.eng.Run()
	if len(r.parked) > 0 {
		var stuck []string
		for p, why := range r.parked {
			stuck = append(stuck, fmt.Sprintf("%s (waiting on %s)", p.name, why))
		}
		sort.Strings(stuck)
		panic(fmt.Sprintf("simproc: deadlock at t=%v; parked: %v", t, stuck))
	}
	return t
}

// RunUntil drives the engine to the deadline. Parked processes are not a
// deadlock here — the caller may keep driving.
func (r *Runner) RunUntil(deadline simclock.Time) simclock.Time {
	return r.eng.RunUntil(deadline)
}

// Drive runs the engine until the event queue is empty, tolerating
// parked processes (server accept loops park until Close by design). Use
// Run when every process is expected to finish.
func (r *Runner) Drive() simclock.Time {
	return r.eng.Run()
}

// Close ends the runner: every parked process unwinds through its
// defers, a process started but not yet run never runs, and every
// coroutine the runner made exits, so nothing the processes captured
// stays reachable from them. Wakes during and after Close queue
// nothing, and Go panics. Close is for the driver, not for a process;
// a second call does nothing. A panic other than the unwind itself (a
// defer that fails) surfaces from Close with the process name, as it
// would from Run.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	coros := r.coros
	r.coros, r.idle = nil, nil
	for _, c := range coros {
		c.stop()
	}
}

// Future is a write-once value processes can await. The zero value is
// not usable; use NewFuture.
type Future[T any] struct {
	r       *Runner
	set     bool
	val     T
	waiters []*Proc
}

// NewFuture returns an unset future bound to the runner.
func NewFuture[T any](r *Runner) *Future[T] {
	if r == nil {
		panic("simproc: nil runner")
	}
	return &Future[T]{r: r}
}

// Set fulfils the future and wakes every waiter. Setting twice panics:
// futures are one-shot completion signals.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("simproc: Future set twice")
	}
	f.set = true
	f.val = v
	for _, w := range f.waiters {
		w.wake()
	}
	f.waiters = nil
}

// IsSet reports whether the future has been fulfilled.
func (f *Future[T]) IsSet() bool { return f.set }

// Await parks p until the future is set and returns its value.
func Await[T any](p *Proc, f *Future[T]) T {
	if f.set {
		return f.val
	}
	f.waiters = append(f.waiters, p)
	p.park("future")
	return f.val
}

// Queue is an unbounded in-order message queue between processes; the
// building block for connections and mailboxes.
type Queue[T any] struct {
	r     *Runner
	items []T
	recvs []*Proc
}

// NewQueue returns an empty queue bound to the runner.
func NewQueue[T any](r *Runner) *Queue[T] {
	if r == nil {
		panic("simproc: nil runner")
	}
	return &Queue[T]{r: r}
}

// Push appends an item and wakes one waiting receiver, if any. It never
// blocks. It may be called from engine or process context.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	if len(q.recvs) > 0 {
		w := q.recvs[0]
		q.recvs = slices.Delete(q.recvs, 0, 1)
		w.wake()
	}
}

// Reset drops every queued item and keeps the queue's storage for
// reuse. Resetting a queue a process is parked on panics.
func (q *Queue[T]) Reset() {
	if len(q.recvs) > 0 {
		panic("simproc: reset of a queue with parked receivers")
	}
	clear(q.items)
	q.items = q.items[:0]
}

// Pop removes and returns the head item, parking p while the queue is
// empty. Multiple receivers are served FIFO.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.recvs = append(q.recvs, p)
		p.park("queue")
	}
	// Shift down in place (slices.Delete zeroes the vacated slot)
	// rather than reslicing: the array keeps its capacity for the next
	// Push, and the popped item is no longer reachable through it.
	v := q.items[0]
	q.items = slices.Delete(q.items, 0, 1)
	return v
}
