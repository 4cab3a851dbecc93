package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The jobQueue property tests drive random interleavings of push, pop,
// and clock advances against a reference model, checking the queue's
// three contracts: strict-mode ordering (priority desc, deadline asc,
// FIFO), exact expiry (a job expires wherever it sits, exactly once),
// and conservation (every admitted job comes back out exactly once —
// popped or expired, never lost, never duplicated).

// modelJob mirrors one queued job in the reference model.
type modelJob struct {
	name     string
	prio     int
	deadline float64
	seq      int
}

// modelQueue is the executable spec: a plain slice ordered on demand by
// the same (priority, deadline, seq) rule the heap implements.
type modelQueue struct {
	jobs []modelJob
	seq  int
}

func (m *modelQueue) push(j modelJob) {
	m.seq++
	j.seq = m.seq
	m.jobs = append(m.jobs, j)
}

// expire removes and returns (in push order) every job dead at now.
func (m *modelQueue) expire(now float64) []modelJob {
	var dead []modelJob
	kept := m.jobs[:0]
	for _, j := range m.jobs {
		if j.deadline > 0 && now > j.deadline {
			dead = append(dead, j)
		} else {
			kept = append(kept, j)
		}
	}
	m.jobs = kept
	sort.Slice(dead, func(i, j int) bool { return dead[i].seq < dead[j].seq })
	return dead
}

// head returns the index of the job the strict discipline must serve.
func (m *modelQueue) head() int {
	best := 0
	for i := 1; i < len(m.jobs); i++ {
		a, b := m.jobs[i], m.jobs[best]
		if a.prio != b.prio {
			if a.prio > b.prio {
				best = i
			}
			continue
		}
		ad, bd := a.deadline, b.deadline
		switch {
		case ad == bd:
			if a.seq < b.seq {
				best = i
			}
		case ad == 0: // no deadline sorts last
		case bd == 0:
			best = i
		case ad < bd:
			best = i
		}
	}
	return best
}

func TestQueuePropertyStrictModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := 0.0
			q := newJobQueue(queueOpts{limit: 12, now: func() float64 { return now }})
			model := &modelQueue{}
			// accounted tracks each job's fate count; every admitted job
			// must end at exactly 1.
			admitted := map[string]bool{}
			accounted := map[string]int{}
			nextID := 0

			expectExpired := func(op string, got []queued, want []modelJob) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s at t=%.2f: expired %d jobs, model expects %d", op, now, len(got), len(want))
				}
				for i := range got {
					if got[i].job.Name != want[i].name {
						t.Fatalf("%s at t=%.2f: expired[%d]=%q, model expects %q", op, now, i, got[i].job.Name, want[i].name)
					}
					accounted[got[i].job.Name]++
				}
			}

			const ops = 600
			for op := 0; op < ops; op++ {
				switch r := rng.Float64(); {
				case r < 0.55: // push
					j := Job{
						Tenant:   fmt.Sprintf("t%d", rng.Intn(3)),
						Name:     fmt.Sprintf("job-%04d", nextID),
						Priority: rng.Intn(3),
						Size:     1,
					}
					nextID++
					if rng.Float64() < 0.5 {
						j.Deadline = now + rng.Float64()*4
					}
					// The queue only sweeps a full queue on push; mirror that.
					var wantDead []modelJob
					wantErr := false
					if len(model.jobs) >= 12 {
						wantDead = model.expire(now)
						wantErr = len(model.jobs) >= 12
					}
					got, err := q.push(j, now)
					expectExpired("push", got, wantDead)
					if wantErr {
						if !errors.Is(err, ErrQueueFull) {
							t.Fatalf("push on full queue: err=%v, model expects ErrQueueFull", err)
						}
					} else {
						if err != nil {
							t.Fatalf("push: %v, model expects admission", err)
						}
						model.push(modelJob{name: j.Name, prio: j.Priority, deadline: j.Deadline})
						admitted[j.Name] = true
					}
				case r < 0.85: // pop
					if q.length() == 0 {
						continue
					}
					var wantDead []modelJob
					if q.nextDeadline > 0 && now >= q.nextDeadline {
						wantDead = model.expire(now)
					}
					it, exp, ok := q.pop()
					if !ok {
						t.Fatal("pop: queue reported closed")
					}
					expectExpired("pop", exp, wantDead)
					if len(model.jobs) == 0 {
						if it != nil {
							t.Fatalf("pop at t=%.2f returned %q from an (expected) empty queue", now, it.job.Name)
						}
						continue
					}
					if it == nil {
						t.Fatalf("pop at t=%.2f returned no job; model holds %d", now, len(model.jobs))
					}
					hi := model.head()
					if want := model.jobs[hi].name; it.job.Name != want {
						t.Fatalf("pop at t=%.2f = %q, model expects %q (prio/deadline/FIFO order)", now, it.job.Name, want)
					}
					model.jobs = append(model.jobs[:hi], model.jobs[hi+1:]...)
					accounted[it.job.Name]++
				default: // time advances; expiry happens lazily on the next op
					now += rng.Float64() * 2
				}
			}

			// Drain everything left.
			for q.length() > 0 {
				var wantDead []modelJob
				if q.nextDeadline > 0 && now >= q.nextDeadline {
					wantDead = model.expire(now)
				}
				it, exp, ok := q.pop()
				if !ok {
					t.Fatal("drain: queue reported closed")
				}
				expectExpired("drain", exp, wantDead)
				if it != nil {
					hi := model.head()
					if want := model.jobs[hi].name; it.job.Name != want {
						t.Fatalf("drain pop = %q, model expects %q", it.job.Name, want)
					}
					model.jobs = append(model.jobs[:hi], model.jobs[hi+1:]...)
					accounted[it.job.Name]++
				}
			}
			if len(model.jobs) != 0 {
				t.Fatalf("queue empty but model still holds %d jobs", len(model.jobs))
			}
			// Conservation: exactly once out, for every job that went in.
			for name := range admitted {
				if accounted[name] != 1 {
					t.Fatalf("job %q accounted %d times, want exactly 1", name, accounted[name])
				}
			}
			for name := range accounted {
				if !admitted[name] {
					t.Fatalf("job %q came out but never went in", name)
				}
			}
		})
	}
}

// Fair mode gives no total order to check, but conservation and
// priority dominance must still hold under random interleavings.
func TestQueuePropertyFairConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := 0.0
		q := newJobQueue(queueOpts{
			fair: true, quantum: 2, limit: 16,
			now: func() float64 { return now },
		})
		admitted := map[string]bool{}
		accounted := map[string]int{}
		nextID := 0
		note := func(items []queued) {
			for _, it := range items {
				accounted[it.job.Name]++
			}
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Float64(); {
			case r < 0.55:
				j := Job{
					Tenant:   fmt.Sprintf("t%d", rng.Intn(4)),
					Name:     fmt.Sprintf("job-%04d", nextID),
					Priority: rng.Intn(3),
					Size:     float64(1 + rng.Intn(3)),
				}
				nextID++
				if rng.Float64() < 0.4 {
					j.Deadline = now + rng.Float64()*4
				}
				exp, err := q.push(j, now)
				note(exp)
				if err == nil {
					admitted[j.Name] = true
				} else if !errors.Is(err, ErrQueueFull) {
					t.Fatalf("push: unexpected error %v", err)
				}
			case r < 0.85:
				if q.length() == 0 {
					continue
				}
				it, exp, ok := q.pop()
				if !ok {
					t.Fatal("pop: closed")
				}
				note(exp)
				if it != nil {
					accounted[it.job.Name]++
				}
			default:
				now += rng.Float64() * 2
			}
		}
		// Drain with no more pushes: priorities must now be non-increasing.
		lastPrio := 1 << 30
		for q.length() > 0 {
			it, exp, ok := q.pop()
			if !ok {
				t.Fatal("drain: closed")
			}
			note(exp)
			if it != nil {
				if it.job.Priority > lastPrio {
					t.Fatalf("fair drain served priority %d after %d", it.job.Priority, lastPrio)
				}
				lastPrio = it.job.Priority
				accounted[it.job.Name]++
			}
		}
		for name := range admitted {
			if accounted[name] != 1 {
				t.Fatalf("seed %d: job %q accounted %d times, want 1", seed, name, accounted[name])
			}
		}
		for name := range accounted {
			if !admitted[name] {
				t.Fatalf("seed %d: job %q came out but never went in", seed, name)
			}
		}
	}
}

// Concurrent conservation: racing producers and consumers lose nothing
// (run under -race by make stress).
func TestQueuePropertyConcurrent(t *testing.T) {
	q := newJobQueue(queueOpts{})
	const producers, perProducer, consumers = 4, 50, 3
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				j := Job{
					Tenant: fmt.Sprintf("t%d", p), Name: fmt.Sprintf("p%d-%03d", p, i),
					Priority: i % 3, Size: 1,
				}
				if _, err := q.push(j, 0); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	names := make(chan string, producers*perProducer)
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				it, _, ok := q.pop()
				if !ok {
					return
				}
				if it != nil {
					names <- it.job.Name
				}
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for len(seen) < producers*perProducer {
		n := <-names
		if seen[n] {
			t.Fatalf("job %q popped twice", n)
		}
		seen[n] = true
	}
	q.close()
	cg.Wait()
	close(names)
	for n := range names {
		t.Fatalf("job %q popped after all %d were accounted", n, producers*perProducer)
	}
}

// fairOrderTrace drives one seeded fair-mode trace — five tenants,
// three priorities, sizes that make the DRR deficit matter, a third of
// the jobs with deadlines, clock advances that fire expiry sweeps, and
// a per-tenant bound — and returns what came out, in order: "pN" for a
// pop of job N, "xN" for an expiry, "rN" for a rejected push.
func fairOrderTrace() string {
	rng := rand.New(rand.NewSource(30))
	now := 0.0
	q := newJobQueue(queueOpts{
		fair: true, quantum: 2, limit: 14, tenantLimit: 4,
		now: func() float64 { return now },
	})
	var out []string
	emit := func(kind string, items []queued) {
		for _, it := range items {
			out = append(out, kind+it.job.Name)
		}
	}
	for id := 0; len(out) < 150; {
		switch r := rng.Float64(); {
		case r < 0.5:
			j := Job{
				Tenant:   fmt.Sprintf("t%d", rng.Intn(5)),
				Name:     fmt.Sprint(id),
				Priority: rng.Intn(3),
				Size:     float64(1 + rng.Intn(3)),
			}
			id++
			if rng.Float64() < 0.35 {
				j.Deadline = now + 0.5 + rng.Float64()*3
			}
			exp, err := q.push(j, now)
			emit("x", exp)
			if err != nil {
				out = append(out, "r"+j.Name)
			}
		case r < 0.85:
			if q.length() == 0 {
				continue
			}
			it, exp, _ := q.pop()
			emit("x", exp)
			if it != nil {
				out = append(out, "p"+it.job.Name)
			}
		default:
			now += rng.Float64() * 1.5
		}
	}
	return strings.Join(out, " ")
}

// TestQueueFairOrderPinned pins fair mode's exact service order. Fair
// mode has no executable model (TestQueuePropertyFairConservation checks
// only conservation and priority), so this trace's output is pinned
// instead: any change to the DRR scan, the per-tenant heaps or the
// sweep that reorders a single pop or expiry shows here.
func TestQueueFairOrderPinned(t *testing.T) {
	const want = "p1 p0 x3 p4 p8 p5 x6 x7 x13 p9 x11 p2 p10 p12 p15 p17 p16 " +
		"p14 p18 p19 p20 p21 x23 p24 p25 p28 r36 p29 p30 x32 p35 p37 " +
		"r45 p39 p42 r47 x40 x41 x46 r52 r54 x49 p55 p33 p26 r57 r58 " +
		"p27 p51 p50 p31 p38 r63 p62 p60 r68 r69 r71 r72 p67 r73 p70 " +
		"r74 r75 r76 r79 p78 r80 p66 p61 x65 p77 r82 p81 x83 p84 p86 " +
		"p22 p34 p87 p53 p89 p88 p91 p90 p85 p48 p94 p95 p43 p97 p99 " +
		"p100 p102 x93 x101 p103 r108 p104 p106 p107 p109 r114 p112 " +
		"p111 p115 p56 r116 p96 p117 p118 r120 r123 p122 r127 r128 " +
		"r129 r131 r132 p121 p125 p119 x133 p44 p134 r136 p135 p105 " +
		"p92 r140 p59 p64 p143 p142 p126 p148 r150 p147 p124 r151 " +
		"p152 p144 p139 p153 r154 p130 r156 r157 p159 p160"
	if got := fairOrderTrace(); got != want {
		t.Fatalf("fair-mode order moved:\n got %s\nwant %s", got, want)
	}
}
