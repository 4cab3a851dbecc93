package simproc

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"detournet/internal/simclock"
)

func TestSleepSequencing(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	var trace []string
	r.Go("a", func(p *Proc) {
		p.Sleep(2)
		trace = append(trace, "a@2")
		p.Sleep(3)
		trace = append(trace, "a@5")
	})
	r.Go("b", func(p *Proc) {
		p.Sleep(1)
		trace = append(trace, "b@1")
		p.Sleep(3)
		trace = append(trace, "b@4")
	})
	end := r.Run()
	if end != 5 {
		t.Fatalf("end = %v, want 5", end)
	}
	want := "b@1,a@2,b@4,a@5"
	if got := strings.Join(trace, ","); got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
}

func TestZeroSleepYields(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	var trace []string
	r.Go("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Sleep(0)
		trace = append(trace, "a2")
	})
	r.Go("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	r.Run()
	// a starts first (scheduled first), yields at 0, b runs, then a resumes.
	if got := strings.Join(trace, ","); got != "a1,b1,a2" {
		t.Fatalf("trace = %s", got)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	r.Go("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	r.Run()
}

func TestFutureAwait(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	f := NewFuture[int](r)
	var got int
	var at simclock.Time
	r.Go("waiter", func(p *Proc) {
		got = Await(p, f)
		at = p.Now()
	})
	r.Go("setter", func(p *Proc) {
		p.Sleep(7)
		f.Set(42)
	})
	r.Run()
	if got != 42 || at != 7 {
		t.Fatalf("got %d at %v, want 42 at 7", got, at)
	}
}

func TestFutureAlreadySet(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	f := NewFuture[string](r)
	f.Set("x")
	var got string
	r.Go("w", func(p *Proc) { got = Await(p, f) })
	r.Run()
	if got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	f := NewFuture[int](r)
	sum := 0
	for i := 0; i < 5; i++ {
		r.Go("w", func(p *Proc) { sum += Await(p, f) })
	}
	r.Go("s", func(p *Proc) {
		p.Sleep(1)
		f.Set(10)
	})
	r.Run()
	if sum != 50 {
		t.Fatalf("sum = %d, want 50", sum)
	}
}

func TestFutureSetTwicePanics(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	f := NewFuture[int](r)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Set did not panic")
		}
	}()
	f.Set(2)
}

func TestQueueFIFO(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	q := NewQueue[int](r)
	var got []int
	r.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	r.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(1)
			q.Push(i * 10)
		}
	})
	r.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got = %v", got)
	}
}

func TestQueuePushBeforePop(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	q := NewQueue[string](r)
	q.Push("early")
	var got string
	r.Go("c", func(p *Proc) { got = q.Pop(p) })
	r.Run()
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestQueueMultipleConsumersFIFO(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	q := NewQueue[int](r)
	var order []string
	r.Go("c1", func(p *Proc) {
		v := q.Pop(p)
		order = append(order, "c1")
		_ = v
	})
	r.Go("c2", func(p *Proc) {
		v := q.Pop(p)
		order = append(order, "c2")
		_ = v
	})
	r.Go("prod", func(p *Proc) {
		p.Sleep(1)
		q.Push(1)
		p.Sleep(1)
		q.Push(2)
	})
	r.Run()
	if strings.Join(order, ",") != "c1,c2" {
		t.Fatalf("consumer order = %v", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	f := NewFuture[int](r)
	r.Go("stuck", func(p *Proc) { Await(p, f) })
	defer func() {
		msg := recover()
		if msg == nil {
			t.Fatal("deadlocked run did not panic")
		}
		if !strings.Contains(msg.(string), "stuck") {
			t.Fatalf("panic message missing proc name: %v", msg)
		}
	}()
	r.Run()
}

// explodeMidUpload is the named helper TestProcPanicNamesProcess looks
// for in the re-raised panic's stack.
func explodeMidUpload() { panic("boom") }

// TestProcPanicNamesProcess: a panic inside a process surfaces from Run
// with the process's name, the panic value and the process's own stack.
func TestProcPanicNamesProcess(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	r.Go("uploader-7", func(p *Proc) {
		p.Sleep(3)
		explodeMidUpload()
	})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"uploader-7", "boom", "explodeMidUpload"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic value missing %q:\n%s", want, msg)
			}
		}
	}()
	r.Run()
}

// TestFinishedProcReleasesClosure: once a process returns, neither its
// Proc, which stays reachable here, nor the coroutine that ran it, now
// idle in the runner, keeps what the process function captured alive.
func TestFinishedProcReleasesClosure(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	var freed atomic.Bool
	p := func() *Proc {
		payload := new([1 << 10]byte)
		runtime.SetFinalizer(payload, func(*[1 << 10]byte) { freed.Store(true) })
		return r.Go("holder", func(p *Proc) {
			p.Sleep(1)
			payload[0] = 1
		})
	}()
	r.Run()
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("finished process still holds its closure")
	}
	runtime.KeepAlive(p)
}

func TestRunUntilLeavesParkedProcs(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	done := false
	r.Go("late", func(p *Proc) {
		p.Sleep(100)
		done = true
	})
	r.RunUntil(50)
	if done {
		t.Fatal("proc completed early")
	}
	if len(r.parked) != 1 {
		t.Fatalf("Parked = %d, want 1", len(r.parked))
	}
	r.Run()
	if !done {
		t.Fatal("proc never completed")
	}
}

func TestNestedGo(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	var trace []string
	r.Go("parent", func(p *Proc) {
		p.Sleep(1)
		child := NewFuture[bool](r)
		r.Go("child", func(c *Proc) {
			c.Sleep(2)
			trace = append(trace, "child@3")
			child.Set(true)
		})
		Await(p, child)
		trace = append(trace, "parent@3")
	})
	r.Run()
	if got := strings.Join(trace, ","); got != "child@3,parent@3" {
		t.Fatalf("trace = %s", got)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		eng := simclock.NewEngine()
		r := New(eng)
		var trace []string
		q := NewQueue[int](r)
		for i := 0; i < 10; i++ {
			i := i
			r.Go("p", func(p *Proc) {
				p.Sleep(float64(i % 3))
				q.Push(i)
				p.Sleep(0.5)
				trace = append(trace, p.name)
			})
		}
		r.Go("drain", func(p *Proc) {
			for i := 0; i < 10; i++ {
				v := q.Pop(p)
				trace = append(trace, string(rune('0'+v)))
			}
		})
		r.Run()
		return trace
	}
	a := run()
	b := run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("non-deterministic traces:\n%v\n%v", a, b)
	}
}

// TestCloseUnwindsEveryProcess: Close unwinds processes parked on a
// queue, a future and a sleep, running their defers; a process started
// but never run never runs; and every coroutine, idle ones included,
// exits, so the goroutine count returns to where it started.
func TestCloseUnwindsEveryProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := simclock.NewEngine()
	r := New(eng)
	q := NewQueue[int](r)
	f := NewFuture[int](r)
	var unwound []string
	park := func(name string, wait func(p *Proc)) {
		r.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			wait(p)
			t.Errorf("%s returned from its wait", name)
		})
	}
	park("popper", func(p *Proc) { q.Pop(p) })
	park("awaiter", func(p *Proc) { Await(p, f) })
	park("sleeper", func(p *Proc) {
		defer p.Sleep(1) // parks again mid-unwind
		p.Sleep(100)
	})
	for i := 0; i < 2; i++ {
		r.Go("finished", func(p *Proc) { p.Sleep(1) })
	}
	r.RunUntil(10)
	if len(r.parked) != 3 || len(r.idle) != 2 {
		t.Fatalf("before Close: %d parked, %d idle; want 3 and 2", len(r.parked), len(r.idle))
	}
	ran := false
	r.Go("never-run", func(p *Proc) { ran = true })
	if runtime.NumGoroutine() <= base {
		t.Fatal("coroutines are not goroutines; the count below proves nothing")
	}

	r.Close()
	if got := strings.Join(unwound, ","); got != "popper,awaiter,sleeper" {
		t.Fatalf("defers ran for [%s], want [popper,awaiter,sleeper]", got)
	}
	if ran {
		t.Fatal("a process started after the last drive ran during Close")
	}
	if len(r.parked) != 0 {
		t.Fatalf("Parked = %d after Close, want 0", len(r.parked))
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Close, want %d", n, base)
	}
}

// TestWakeAfterCloseQueuesNothing: a push to a queue or a set of a
// future whose waiters Close unwound schedules no event, and a closed
// runner's own defers, which do the same during the unwind, neither.
func TestWakeAfterCloseQueuesNothing(t *testing.T) {
	eng := simclock.NewEngine()
	r := New(eng)
	q := NewQueue[int](r)
	f := NewFuture[int](r)
	r.Go("receiver", func(p *Proc) { q.Pop(p) })
	r.Go("sender", func(p *Proc) {
		// Unwound after the receiver: its push wakes a process that
		// is already gone, as a closing connection's does.
		defer q.Push(1)
		q.Pop(p)
	})
	r.Go("awaiter", func(p *Proc) { Await(p, f) })
	r.Drive()
	pending := eng.Pending()
	r.Close()
	if eng.Pending() != pending {
		t.Fatalf("Close queued %d events", eng.Pending()-pending)
	}
	q.Push(2)
	f.Set(3)
	if eng.Pending() != pending {
		t.Fatalf("Push and Set after Close queued %d events", eng.Pending()-pending)
	}
}

// TestCloseIdempotentAndFinal: a second Close does nothing, and Go on a
// closed runner panics.
func TestCloseIdempotentAndFinal(t *testing.T) {
	r := New(simclock.NewEngine())
	r.Go("a", func(p *Proc) { p.Sleep(1) })
	r.Close()
	r.Close()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "closed runner") {
			t.Fatalf("Go after Close: panic %q, want one naming the closed runner", msg)
		}
	}()
	r.Go("late", func(p *Proc) {})
}

// TestClosePanicInDeferNamesProcess: only the unwind itself is
// swallowed; a defer that panics while Close unwinds its process
// surfaces from Close with the process name.
func TestClosePanicInDeferNamesProcess(t *testing.T) {
	r := New(simclock.NewEngine())
	q := NewQueue[int](r)
	r.Go("server-9", func(p *Proc) {
		defer func() { panic("defer boom") }()
		q.Pop(p)
	})
	r.Drive()
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"server-9", "defer boom"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic value missing %q:\n%s", want, msg)
			}
		}
	}()
	r.Close()
}

// TestCloseReleasesParkedServer: what a server process parked forever
// captures stays reachable until its runner is closed, and is collected
// once it is. The runners themselves are dropped in both cases.
func TestCloseReleasesParkedServer(t *testing.T) {
	serve := func(shut bool) *atomic.Bool {
		var freed atomic.Bool
		r := New(simclock.NewEngine())
		q := NewQueue[int](r)
		payload := new([1 << 10]byte)
		runtime.SetFinalizer(payload, func(*[1 << 10]byte) { freed.Store(true) })
		r.Go("accept", func(p *Proc) {
			for {
				payload[q.Pop(p)%len(payload)]++
			}
		})
		r.Drive()
		if shut {
			r.Close()
		}
		return &freed
	}
	closed, open := serve(true), serve(false)
	for i := 0; i < 100 && !closed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !closed.Load() {
		t.Fatal("a closed runner's server process still holds its closure")
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if open.Load() {
		t.Fatal("an open runner's parked server was collected: the Close case proves nothing")
	}
}

// A queue in steady use allocates nothing: Pop shifts the items down in
// place, so Push keeps appending into the same array.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := NewQueue[int](New(simclock.NewEngine()))
	q.Push(0)
	// Pop never parks on a non-empty queue, so it needs no process.
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Push(2)
		q.Pop(nil)
		q.Pop(nil)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per push/pop round, want 0", allocs)
	}
}

// A popped item is garbage as soon as nothing but the queue's array
// ever held it, even while the queue itself lives on.
func TestPoppedItemCollectable(t *testing.T) {
	type item struct{ buf [64]byte }
	q := NewQueue[*item](New(simclock.NewEngine()))
	var collected atomic.Bool
	v := &item{}
	runtime.SetFinalizer(v, func(*item) { collected.Store(true) })
	q.Push(v)
	q.Push(&item{})
	v = nil
	if q.Pop(nil) == nil {
		t.Fatal("popped nil")
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the popped item is still reachable from its queue")
	}
	runtime.KeepAlive(q)
}
