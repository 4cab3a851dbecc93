package simclock

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterAdvancesFromNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil func did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel reported false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel reported true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.cancel {
		t.Fatal("event not marked cancelled after Cancel")
	}
}

func TestCancelFired(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Fatal("Cancel of fired event reported true")
	}
}

// Place moves a pending event to a claimed key and queues a new, fired
// or cancelled one there. The key's sequence number, not the moment of
// the call, decides an equal-time tie.
func TestPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	log := func(name string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%v", name, e.Now())) }
	}
	early := e.Claim()
	a := e.Schedule(10, log("a"))
	e.Schedule(4, log("b"))
	e.Place(a, 4, early) // pending: moves, and its older number beats b
	c := NewEvent(log("c"))
	e.Place(c, 4, e.Claim()) // new: queued, after b
	e.Run()
	e.Place(c, 6, e.Claim()) // fired: queued again
	x := e.Schedule(7, log("x"))
	e.Cancel(x)
	e.Place(x, 7, e.Claim()) // cancelled: queued again
	if x.cancel || e.Pending() != 2 {
		t.Fatalf("after placing a fired and a cancelled event: cancelled %v, %d pending", x.cancel, e.Pending())
	}
	e.Run()
	if want := "[a@4 b@4 c@4 c@6 x@7]"; fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("placing at an unclaimed sequence number did not panic")
		}
	}()
	e.Place(c, 8, e.seq)
}

// A BeforeNext hook runs once, before the queue is next seen: before
// Step pops, before RunUntil moves the clock (whether the queue is empty
// or its head lies past the deadline), and before Pending counts.
func TestBeforeNext(t *testing.T) {
	t.Run("once, before Step pops", func(t *testing.T) {
		e := NewEngine()
		var got []string
		e.Schedule(5, func() { got = append(got, fmt.Sprintf("event@%v", e.Now())) })
		e.BeforeNext(func() { got = append(got, fmt.Sprintf("hook@%v", e.Now())) })
		e.Step()
		e.Step()
		if want := "[hook@0 event@5]"; fmt.Sprint(got) != want {
			t.Fatalf("ran %v, want %s", got, want)
		}
	})
	t.Run("Step on an empty queue", func(t *testing.T) {
		e := NewEngine()
		ran := 0
		e.BeforeNext(func() {
			ran++
			e.Schedule(3, func() {})
		})
		if !e.Step() || ran != 1 || e.Now() != 3 {
			t.Fatalf("Step ran the hook %d times and the event it queued at %v", ran, e.Now())
		}
	})
	t.Run("RunUntil on an empty queue", func(t *testing.T) {
		e := NewEngine()
		var at []Time
		e.BeforeNext(func() { at = append(at, e.Now()) })
		if e.RunUntil(10) != 10 || fmt.Sprint(at) != "[0]" {
			t.Fatalf("hook ran at %v, clock %v; want once at 0, clock 10", at, e.Now())
		}
	})
	t.Run("RunUntil with the head past the deadline", func(t *testing.T) {
		e := NewEngine()
		var got []string
		e.Schedule(20, func() { got = append(got, "late") })
		e.BeforeNext(func() {
			got = append(got, fmt.Sprintf("hook@%v", e.Now()))
			e.Schedule(4, func() { got = append(got, fmt.Sprintf("placed@%v", e.Now())) })
		})
		e.RunUntil(10)
		if want := "[hook@0 placed@4]"; fmt.Sprint(got) != want || e.Now() != 10 {
			t.Fatalf("ran %v, clock %v; want %s, clock 10", got, e.Now(), want)
		}
	})
	t.Run("Pending", func(t *testing.T) {
		e := NewEngine()
		ran := 0
		e.BeforeNext(func() {
			ran++
			e.Pending() // re-entrant: the hook is already off the list
			e.BeforeNext(func() { ran += 10 })
			e.Schedule(1, func() {})
		})
		if p := e.Pending(); p != 1 || ran != 11 {
			t.Fatalf("Pending = %d with the hooks run %d, want 1 and 11", p, ran)
		}
		if e.Pending(); ran != 11 {
			t.Fatalf("hooks ran again: %d", ran)
		}
	})
	t.Run("registered inside an event", func(t *testing.T) {
		e := NewEngine()
		var got []string
		log := func(name string) func() {
			return func() { got = append(got, fmt.Sprintf("%s@%v", name, e.Now())) }
		}
		e.Schedule(1, func() {
			log("a")()
			e.BeforeNext(log("hook"))
		})
		e.Schedule(1, log("b"))
		e.Run()
		if want := "[a@1 hook@1 b@1]"; fmt.Sprint(got) != want {
			t.Fatalf("ran %v, want %s", got, want)
		}
	})
	t.Run("a number claimed before a later Schedule", func(t *testing.T) {
		// An event placed from the hook, at a number claimed inside an
		// event, runs before an equal-time event scheduled after the
		// claim: what an eager Place at the claim would have given.
		e := NewEngine()
		var got []string
		placed := NewEvent(func() { got = append(got, "placed") })
		e.Schedule(1, func() {
			key := e.Claim()
			e.BeforeNext(func() { e.Place(placed, 2, key) })
			e.Schedule(2, func() { got = append(got, "scheduled") })
		})
		e.Run()
		if want := "[placed scheduled]"; fmt.Sprint(got) != want {
			t.Fatalf("ran %v, want %s", got, want)
		}
	})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1,2", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %v, want 2", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Now() != 4 {
		t.Fatalf("Now = %v, want 4", e.Now())
	}
}

func TestRunUntilAdvancesClockPastQueue(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(5, func() { n++ })
	e.Advance(3)
	if n != 0 || e.Now() != 3 {
		t.Fatalf("after Advance(3): n=%d now=%v", n, e.Now())
	}
	e.Advance(3)
	if n != 1 || e.Now() != 6 {
		t.Fatalf("after Advance(6): n=%d now=%v", n, e.Now())
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	var loop func()
	loop = func() { e.After(0, loop) }
	e.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("event loop did not trip MaxEvents")
		}
	}()
	e.Run()
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(1, func() {
		e.After(1, func() { got = append(got, e.Now()) })
		e.After(2, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("nested scheduling produced %v, want [2 3]", got)
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// Property: for any set of (time, id) pairs, execution order equals a
// stable sort by time.
func TestPropertyExecutionIsStableSortByTime(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine()
		type item struct {
			at  Time
			seq int
		}
		var want []item
		var got []item
		for i, r := range raw {
			at := Time(r % 50)
			want = append(want, item{at, i})
			i := i
			e.Schedule(at, func() { got = append(got, item{at, i}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never fires those events and fires
// all others.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		e := NewEngine()
		n := 50
		fired := make([]bool, n)
		evs := make([]*Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.Schedule(Time(rng.Intn(20)), func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(evs[i])
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if cancelled[i] && fired[i] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, i)
			}
			if !cancelled[i] && !fired[i] {
				t.Fatalf("trial %d: live event %d did not fire", trial, i)
			}
		}
	}
}

// Property: moving pending events with Claim and Place gives the same
// execution order as cancelling them and scheduling their callbacks
// anew, including equal-time ties and moves made from inside running
// events. One engine moves in place; its twin cancels and schedules;
// both follow the same seeded script.
func TestPropertyPlaceMatchesCancelSchedule(t *testing.T) {
	run := func(seed int64, inPlace bool) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var evs []*Event
		var got []int
		var fire func(id int) func()
		// move shifts event i to now+d; d is a small integer, so moved
		// events tie with pending ones.
		move := func(i int, d Time) {
			at := e.Now() + d
			if inPlace {
				if evs[i].index >= 0 {
					e.Place(evs[i], at, e.Claim())
				}
			} else if e.Cancel(evs[i]) {
				evs[i] = e.Schedule(at, fire(i))
			}
		}
		add := func(at Time) { evs = append(evs, e.Schedule(at, fire(len(evs)))) }
		fire = func(id int) func() {
			return func() {
				got = append(got, id)
				// Each firing moves a few events, sometimes schedules a
				// fresh one, sometimes cancels one.
				for k := rng.Intn(4); k > 0; k-- {
					move(rng.Intn(len(evs)), Time(rng.Intn(4)))
				}
				if rng.Intn(3) == 0 && len(evs) < 120 {
					add(e.Now() + Time(rng.Intn(3)))
				}
				if rng.Intn(5) == 0 {
					e.Cancel(evs[rng.Intn(len(evs))])
				}
			}
		}
		for i := 10 + rng.Intn(30); i > 0; i-- {
			add(Time(rng.Intn(6)))
		}
		for k := rng.Intn(10); k > 0; k-- {
			move(rng.Intn(len(evs)), Time(rng.Intn(6)))
		}
		e.Run()
		return got
	}
	for seed := int64(0); seed < 200; seed++ {
		inPlace, fresh := run(seed, true), run(seed, false)
		if len(inPlace) != len(fresh) {
			t.Fatalf("seed %d: %d events ran in place, %d with cancel+schedule", seed, len(inPlace), len(fresh))
		}
		for i := range inPlace {
			if inPlace[i] != fresh[i] {
				t.Fatalf("seed %d: order diverges at %d:\n in place %v\n fresh    %v", seed, i, inPlace, fresh)
			}
		}
	}
}

// refQueue is a container/heap queue on (at, seq): the structure the
// engine's typed heap replaced, kept as the oracle for its pop order.
type refQueue []*refItem

type refItem struct {
	at    Time
	seq   uint64
	id    int
	index int // -1 when not queued
}

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *refQueue) Push(x any) {
	it := x.(*refItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	it.index = -1
	*q = old[:len(old)-1]
	return it
}

// Property: under random Schedule/Post/Cancel/Claim/Place/Rearm/Release/
// Step scripts with many equal-time ties, the engine runs events in
// exactly the order a container/heap queue on (at, seq) pops them, and
// every call reports what the reference model says it should. The
// reference never reuses anything, so recycling released and posted
// events must not move the order. A placement claims one to three
// numbers and puts the event at any one of them, as an owner standing
// one event in for several does; the numbers it skips are used by
// nothing. A deferred placement claims a number, schedules equal-time
// events after it and places the event from a BeforeNext hook, which the
// next Step, RunUntil or Pending runs; the reference places at the claim.
func TestPropertyHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref refQueue
		var seq uint64
		var evs []*Event
		var items []*refItem
		fired := map[int]bool{}
		cancelled := map[int]bool{}
		var ran []int
		queue := func(it *refItem, at Time) {
			it.at, it.seq = at, seq
			seq++
			heap.Push(&ref, it)
		}
		step := func() {
			want := heap.Pop(&ref).(*refItem)
			fired[want.id] = true
			if !e.Step() || ran[len(ran)-1] != want.id || e.Now() != want.at {
				t.Fatalf("seed %d: engine ran %v at %v, reference pops %d at %v", seed, ran, e.Now(), want.id, want.at)
			}
		}
		for op := 0; op < 400; op++ {
			at := e.Now() + Time(rng.Intn(4))
			var id int
			if len(evs) > 0 {
				id = rng.Intn(len(evs))
			}
			k := rng.Intn(14)
			if k >= 3 && k <= 5 || k >= 10 {
				if len(evs) == 0 || evs[id] == nil { // no live handle to act on
					k = 0
				}
			}
			switch {
			case k < 3:
				id = len(evs)
				evs = append(evs, e.Schedule(at, func() { ran = append(ran, id) }))
				items = append(items, &refItem{id: id, index: -1})
				queue(items[id], at)
			case k == 10:
				id = len(evs)
				e.Post(at, func() { ran = append(ran, id) })
				evs = append(evs, nil)
				items = append(items, &refItem{id: id, index: -1})
				queue(items[id], at)
			case k == 13:
				// A place deferred to a BeforeNext hook, at a number
				// claimed now, with equal-time events scheduled after
				// the claim; the reference places at once. Step,
				// RunUntil or Pending runs the hook.
				key := e.Claim()
				if key != seq {
					t.Fatalf("seed %d: Claim = %d, reference %d", seed, key, seq)
				}
				seq++
				e.BeforeNext(func() { e.Place(evs[id], at, key) })
				it := items[id]
				it.at, it.seq = at, key
				if it.index >= 0 {
					heap.Fix(&ref, it.index)
				} else {
					fired[id], cancelled[id] = false, false
					heap.Push(&ref, it)
				}
				for c := rng.Intn(3); c > 0; c-- {
					nid := len(evs)
					evs = append(evs, e.Schedule(at, func() { ran = append(ran, nid) }))
					items = append(items, &refItem{id: nid, index: -1})
					queue(items[nid], at)
				}
				switch rng.Intn(3) {
				case 0:
					step()
				case 1:
					var want []int
					for ref.Len() > 0 && ref[0].at <= e.Now() {
						it := heap.Pop(&ref).(*refItem)
						fired[it.id] = true
						want = append(want, it.id)
					}
					n := len(ran)
					e.RunUntil(e.Now())
					if fmt.Sprint(ran[n:]) != fmt.Sprint(want) {
						t.Fatalf("seed %d: RunUntil ran %v, reference pops %v", seed, ran[n:], want)
					}
				}
			case k >= 11:
				// Releasing a pending event does nothing; a fired or
				// cancelled one is recycled and its handle is dead.
				e.Release(evs[id])
				if items[id].index < 0 {
					evs[id] = nil
				}
			case k == 3:
				want := items[id].index >= 0
				if got := e.Cancel(evs[id]); got != want {
					t.Fatalf("seed %d: Cancel(%d) = %v, reference %v", seed, id, got, want)
				}
				if want {
					heap.Remove(&ref, items[id].index)
					cancelled[id] = true
				}
			case k == 4:
				var claimed []uint64
				for c := 1 + rng.Intn(3); c > 0; c-- {
					claimed = append(claimed, e.Claim())
					if claimed[len(claimed)-1] != seq {
						t.Fatalf("seed %d: Claim = %d, reference %d", seed, claimed[len(claimed)-1], seq)
					}
					seq++
				}
				key := claimed[rng.Intn(len(claimed))]
				e.Place(evs[id], at, key)
				it := items[id]
				it.at, it.seq = at, key
				if it.index >= 0 {
					heap.Fix(&ref, it.index)
				} else {
					fired[id], cancelled[id] = false, false
					heap.Push(&ref, it)
				}
			case k == 5:
				want := items[id].index < 0 && fired[id] && !cancelled[id]
				if got := e.Rearm(evs[id], at); got != want {
					t.Fatalf("seed %d: Rearm(%d) = %v, reference %v", seed, id, got, want)
				}
				if want {
					fired[id] = false
					queue(items[id], at)
				}
			default:
				if ref.Len() > 0 {
					step()
				}
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("seed %d: %d pending, reference %d", seed, e.Pending(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			step()
		}
		if e.Step() {
			t.Fatalf("seed %d: engine has events the reference does not", seed)
		}
	}
}

// A released event is what the next Schedule hands out; releasing a
// pending event does nothing, and a dead handle is refused everywhere.
func TestReleaseRecyclesIntoSchedule(t *testing.T) {
	e := NewEngine()
	n := 0
	ev := e.Schedule(1, func() { n++ })
	e.Release(ev) // pending: no-op
	if e.Pending() != 1 {
		t.Fatal("Release dropped a pending event")
	}
	e.Run()
	if n != 1 {
		t.Fatalf("event ran %d times", n)
	}
	e.Release(ev)
	e.Release(ev) // twice: the second is a no-op, not a double free
	if e.Cancel(ev) || e.Rearm(ev, 5) {
		t.Fatal("a released handle was accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Place accepted a released handle")
			}
		}()
		e.Place(ev, 5, e.Claim())
	}()
	a := e.Schedule(2, func() { n += 10 })
	if a != ev {
		t.Fatal("Schedule did not reuse the released event")
	}
	if b := e.Schedule(2, func() { n += 100 }); b == ev {
		t.Fatal("one released event handed out twice")
	}
	e.Run()
	if n != 111 {
		t.Fatalf("n = %d, want 111", n)
	}
	cancelled := e.Schedule(3, func() { t.Fatal("cancelled event ran") })
	e.Cancel(cancelled)
	e.Release(cancelled)
	if e.Schedule(4, func() {}) != cancelled {
		t.Fatal("a released cancelled event was not reused")
	}
	e.Run()
}

// A posted event is recycled exactly once, also when its callback
// schedules (and so may take the posted event's own struct) or
// releases another event.
func TestPostedEventRecycledOnce(t *testing.T) {
	e := NewEngine()
	other := e.Schedule(0, func() {})
	e.Run()
	var got []string
	var a, b *Event
	e.Post(1, func() {
		got = append(got, "post")
		e.Release(other)
		a = e.Schedule(2, func() { got = append(got, "a") })
		b = e.Schedule(2, func() { got = append(got, "b") })
		e.Post(2, func() { got = append(got, "c") })
	})
	e.Run()
	if want := "[post a b c]"; fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
	}
	// The free list held the post's own struct and other: a and b took
	// one each, and only the second post's struct is free at the end.
	if a != other || b == a || b == nil {
		t.Fatal("the released and the posted struct were not each reused once")
	}
	if len(e.free) != 1 || e.free[0] == a || e.free[0] == b {
		t.Fatalf("free list %v after the run, want the second post only", e.free)
	}
	if e.Processed() != 5 {
		t.Fatalf("processed %d events, want 5", e.Processed())
	}
}

func TestRearmRefusesPendingAndCancelled(t *testing.T) {
	e := NewEngine()
	if e.Rearm(nil, 1) {
		t.Fatal("Rearm(nil) = true")
	}
	ev := e.Schedule(1, func() {})
	if e.Rearm(ev, 2) {
		t.Fatal("Rearm of a pending event = true")
	}
	e.Cancel(ev)
	if e.Rearm(ev, 2) {
		t.Fatal("Rearm of a cancelled event = true")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending", e.Pending())
	}
}

func TestRearmedEventCanBeCancelled(t *testing.T) {
	e := NewEngine()
	n := 0
	ev := e.Schedule(1, func() { n++ })
	e.Run()
	if !e.Rearm(ev, 5) || e.Pending() != 1 || ev.At() != 5 {
		t.Fatalf("Rearm after firing: pending %d at %v", e.Pending(), ev.At())
	}
	if !e.Cancel(ev) || !ev.cancel {
		t.Fatal("re-armed event not cancellable")
	}
	if e.Run(); n != 1 {
		t.Fatalf("cancelled re-armed event ran: %d runs", n)
	}
	if e.Rearm(ev, 6) {
		t.Fatal("Rearm after Cancel = true")
	}
}

func TestRearmPastPanics(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(2, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming in the past did not panic")
		}
	}()
	e.Rearm(ev, 1)
}

// A NaN time compares false with everything, so a plain at < now guard
// lets it through and it breaks the heap order; every entry point that
// takes a time refuses it, with the message it gives for a past time.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	for name, tc := range map[string]struct {
		verb string
		do   func(e *Engine, ev *Event)
	}{
		"Schedule": {"schedule", func(e *Engine, _ *Event) { e.Schedule(nan, func() {}) }},
		"After":    {"schedule", func(e *Engine, _ *Event) { e.After(math.NaN(), func() {}) }},
		"Place":    {"place", func(e *Engine, _ *Event) { e.Place(e.Schedule(3, func() {}), nan, e.Claim()) }},
		"Rearm":    {"rearm", func(e *Engine, ev *Event) { e.Rearm(ev, nan) }},
	} {
		e := NewEngine()
		fired := e.Schedule(1, func() {})
		e.Run()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s at NaN did not panic", name)
				} else if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "simclock: "+tc.verb+" at NaN before now 1") {
					t.Errorf("%s at NaN panicked %q", name, msg)
				}
			}()
			tc.do(e, fired)
		}()
		if e.Now() != 1 || e.Pending() > 1 {
			t.Errorf("%s at NaN: now %v, %d pending", name, e.Now(), e.Pending())
		}
	}
}

// A periodic event that re-arms itself from its own callback runs in the
// same order, equal-time ties included, as one that schedules a fresh
// event: re-arming takes a sequence number exactly where Schedule would.
func TestRearmOrdersLikeSchedule(t *testing.T) {
	run := func(rearm bool) []string {
		e := NewEngine()
		var got []string
		var tick *Event
		var fn func()
		fn = func() {
			got = append(got, fmt.Sprintf("tick@%v", e.Now()))
			if e.Now() >= 6 {
				return
			}
			// Ties before the re-arm (already queued) and after it.
			e.Schedule(e.Now()+2, func() { got = append(got, fmt.Sprintf("after@%v", e.Now())) })
			if rearm {
				if !e.Rearm(tick, e.Now()+2) {
					panic("Rearm refused a fired event")
				}
			} else {
				tick = e.Schedule(e.Now()+2, fn)
			}
			e.Schedule(e.Now()+2, func() { got = append(got, fmt.Sprintf("later@%v", e.Now())) })
		}
		e.Schedule(2, func() { got = append(got, "first@2") })
		tick = e.Schedule(0, fn)
		e.Run()
		return got
	}
	a, b := fmt.Sprint(run(true)), fmt.Sprint(run(false))
	if a != b {
		t.Fatalf("Rearm order %s\nSchedule order %s", a, b)
	}
	if want := "[tick@0 first@2 after@2 tick@2 later@2 after@4 tick@4 later@4 after@6 tick@6 later@6]"; a != want {
		t.Fatalf("order %s, want %s", a, want)
	}
}

// BenchmarkEngineStep measures one Step at a steady queue size: every
// event re-arms itself at a pseudo-random later time, so each op is one
// pop and one push with the given number of events pending.
func BenchmarkEngineStep(b *testing.B) {
	for _, pending := range []int{100, 1000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			x := uint64(1)
			evs := make([]*Event, pending)
			for i := range evs {
				evs[i] = e.Schedule(Time(i%97), func() {
					x = x*6364136223846793005 + 1442695040888963407
					e.Rearm(evs[i], e.Now()+Time(x>>40)/(1<<20))
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

func BenchmarkCancelHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		evs := make([]*Event, 1000)
		for j := range evs {
			evs[j] = e.Schedule(Time(j), func() {})
		}
		for j := 0; j < len(evs); j += 2 {
			e.Cancel(evs[j])
		}
		e.Run()
	}
}
