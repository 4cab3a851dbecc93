package sched

import (
	"container/heap"
	"sort"
	"sync"
)

// queueOpts tunes the jobQueue. The zero value is the PR-1 queue:
// unbounded, strict priority order, no proactive expiry.
type queueOpts struct {
	// limit bounds total queue occupancy (0 = unbounded); tenantLimit
	// bounds one tenant's share of it (0 = unbounded).
	limit       int
	tenantLimit int
	// fair switches draining from strict (priority, deadline, FIFO) to
	// equal-weight deficit-round-robin across tenants *within* each
	// priority level — priorities still strictly dominate each other.
	fair    bool
	quantum float64 // DRR deficit refill per visit (bytes)
	// now is the scheduler clock; it drives the proactive expiry sweep.
	now func() float64
}

func (o queueOpts) withDefaults() queueOpts {
	if o.quantum <= 0 {
		o.quantum = 32 << 20
	}
	if o.now == nil {
		o.now = func() float64 { return 0 }
	}
	return o
}

// jobQueue is the blocking queue between Submit and the worker pool:
// higher priority first, then — in strict mode — earlier deadline (no
// deadline sorts last) and FIFO within ties, or — in fair mode —
// equal-weight deficit-round-robin across the tenants of the level.
//
// The queue is bounded when opts.limit is set: push rejects with
// ErrQueueFull / ErrTenantQuota, pushWait blocks until space frees.
// Jobs whose deadline passes while queued are expired *in place* by a
// sweep that runs on pop and on push-when-full, so dead jobs stop
// occupying slots; expired jobs are handed back to the caller, which
// owns finishing them.
type jobQueue struct {
	mu    sync.Mutex
	cond  *sync.Cond // waiters in pop (queue empty)
	space *sync.Cond // waiters in pushWait (queue full)
	opts  queueOpts

	h      jobHeap           // strict mode
	levels map[int]*drrLevel // fair mode, by priority
	prios  []int             // fair mode: non-empty priorities, descending

	size     int
	byTenant map[string]int
	// nextDeadline is the earliest deadline anywhere in the queue (0 =
	// none); sweeps are skipped while now is before it.
	nextDeadline float64
	seq          int64
	closed       bool
}

func newJobQueue(opts queueOpts) *jobQueue {
	q := &jobQueue{
		opts:     opts.withDefaults(),
		levels:   make(map[int]*drrLevel),
		byTenant: make(map[string]int),
	}
	q.cond = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

// full reports whether admitting one more job for tenant would exceed a
// bound, and which bound.
func (q *jobQueue) full(tenant string) (bool, error) {
	if q.opts.limit > 0 && q.size >= q.opts.limit {
		return true, ErrQueueFull
	}
	if q.opts.tenantLimit > 0 && q.byTenant[tenant] >= q.opts.tenantLimit {
		return true, taggedError{tag: ErrQueueFull, err: ErrTenantQuota}
	}
	return false, nil
}

// push enqueues a job without blocking. When the queue is full it first
// sweeps expired jobs to free slots; if still full it rejects with a
// typed error. Any jobs expired by the sweep are returned either way —
// the caller owns finishing them.
func (q *jobQueue) push(j Job, now float64) ([]queued, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	var expired []queued
	if isFull, ferr := q.full(j.Tenant); isFull {
		expired = q.sweep(now)
		if isFull, ferr = q.full(j.Tenant); isFull {
			return expired, ferr
		}
	}
	q.add(j, now)
	return expired, nil
}

// pushWait enqueues a job, blocking while the queue (or the tenant's
// quota) is full. It returns ErrClosed if the queue closes while
// waiting, plus any jobs its sweeps expired.
func (q *jobQueue) pushWait(j Job, now func() float64) ([]queued, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired []queued
	for {
		if q.closed {
			return expired, ErrClosed
		}
		isFull, _ := q.full(j.Tenant)
		if isFull {
			if exp := q.sweep(now()); len(exp) > 0 {
				expired = append(expired, exp...)
				continue
			}
			q.space.Wait()
			continue
		}
		q.add(j, now())
		return expired, nil
	}
}

// pop dequeues the next job per the queue discipline, blocking while
// the queue is empty. Returns:
//
//	(nil, nil, false)      — queue closed
//	(nil, expired, true)   — the sweep expired jobs and none remain
//	                         runnable; finish them and pop again
//	(&j, expired, true)    — a job, plus anything the sweep expired
func (q *jobQueue) pop() (*queued, []queued, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, nil, false
	}
	var expired []queued
	now := q.opts.now()
	if q.nextDeadline > 0 && now >= q.nextDeadline {
		expired = q.sweep(now)
		if q.size == 0 {
			return nil, expired, true
		}
	}
	it := q.next()
	q.remove(it)
	return &it, expired, true
}

// tryPop dequeues without blocking (used to fail leftovers after close).
func (q *jobQueue) tryPop() (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return Job{}, false
	}
	it := q.next()
	q.remove(it)
	return it.job, true
}

// length reports how many jobs wait in the queue.
func (q *jobQueue) length() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// close wakes all blocked receivers and producers; they observe closed.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.space.Broadcast()
	q.mu.Unlock()
}

// add inserts one job. Caller holds q.mu and has checked bounds.
func (q *jobQueue) add(j Job, now float64) {
	q.seq++
	it := queued{job: j, seq: q.seq, enq: now}
	q.size++
	q.byTenant[j.Tenant]++
	if d := j.Deadline; d > 0 && (q.nextDeadline == 0 || d < q.nextDeadline) {
		q.nextDeadline = d
	}
	if !q.opts.fair {
		heap.Push(&q.h, it)
	} else {
		q.levelFor(j.Priority).add(it)
	}
	q.cond.Signal()
}

// remove updates occupancy bookkeeping for a dequeued item and wakes a
// blocked producer. Caller holds q.mu; the item is already out of its
// heap.
func (q *jobQueue) remove(it queued) {
	q.size--
	if n := q.byTenant[it.job.Tenant] - 1; n > 0 {
		q.byTenant[it.job.Tenant] = n
	} else {
		delete(q.byTenant, it.job.Tenant)
	}
	q.space.Signal()
}

// next picks the next item per the discipline and extracts it from its
// heap (occupancy bookkeeping is remove's job). Caller holds q.mu and
// guarantees size > 0.
func (q *jobQueue) next() queued {
	if !q.opts.fair {
		return heap.Pop(&q.h).(queued)
	}
	for len(q.prios) > 0 {
		lv := q.levels[q.prios[0]]
		if lv == nil || lv.size == 0 {
			delete(q.levels, q.prios[0])
			q.prios = q.prios[1:]
			continue
		}
		return lv.take(q.opts)
	}
	panic("sched: jobQueue.next on empty queue")
}

// levelFor returns (creating if needed) the DRR level for a priority.
func (q *jobQueue) levelFor(prio int) *drrLevel {
	lv := q.levels[prio]
	if lv == nil {
		lv = &drrLevel{tenants: make(map[string]*tenantQ)}
		q.levels[prio] = lv
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] <= prio })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = prio
	}
	return lv
}

// sweep expires every queued job whose deadline has passed, recomputes
// nextDeadline, and returns the expired items in submission order.
// Caller holds q.mu.
func (q *jobQueue) sweep(now float64) []queued {
	if q.nextDeadline == 0 || now < q.nextDeadline {
		return nil
	}
	var exp []queued
	q.nextDeadline = 0
	note := func(d float64) {
		if d > 0 && (q.nextDeadline == 0 || d < q.nextDeadline) {
			q.nextDeadline = d
		}
	}
	dead := func(it queued) bool { return it.job.Deadline > 0 && now > it.job.Deadline }
	if !q.opts.fair {
		kept := q.h[:0]
		for _, it := range q.h {
			if dead(it) {
				exp = append(exp, it)
			} else {
				kept = append(kept, it)
				note(it.job.Deadline)
			}
		}
		q.h = kept
		heap.Init(&q.h)
	} else {
		for _, prio := range q.prios {
			lv := q.levels[prio]
			if lv == nil {
				continue
			}
			for _, t := range lv.ring {
				tq := lv.tenants[t]
				if tq == nil {
					continue
				}
				kept := tq.h[:0]
				for _, it := range tq.h {
					if dead(it) {
						exp = append(exp, it)
						lv.size--
					} else {
						kept = append(kept, it)
						note(it.job.Deadline)
					}
				}
				tq.h = kept
				heap.Init(&tq.h)
			}
		}
	}
	sort.Slice(exp, func(i, j int) bool { return exp[i].seq < exp[j].seq })
	for _, it := range exp {
		q.remove(it)
	}
	return exp
}

// drrLevel is one priority level in fair mode: per-tenant FIFO/deadline
// sub-queues served deficit-round-robin, so a bursty tenant can no
// longer starve its peers at the same priority.
type drrLevel struct {
	tenants map[string]*tenantQ
	ring    []string // service order: first arrival first, round-robin
	pos     int
	size    int
}

type tenantQ struct {
	h       jobHeap
	deficit float64
}

func (lv *drrLevel) add(it queued) {
	tq := lv.tenants[it.job.Tenant]
	if tq == nil {
		tq = &tenantQ{}
		lv.tenants[it.job.Tenant] = tq
		lv.ring = append(lv.ring, it.job.Tenant)
	}
	heap.Push(&tq.h, it)
	lv.size++
}

// take runs the DRR scan: visit tenants round-robin, refilling each
// visited tenant's deficit by quantum until one can afford its
// head job (cost = bytes). An idle tenant leaves the ring and its
// deficit resets, per classic DRR. Caller guarantees lv.size > 0.
func (lv *drrLevel) take(opts queueOpts) queued {
	for {
		if lv.pos >= len(lv.ring) {
			lv.pos = 0
		}
		t := lv.ring[lv.pos]
		tq := lv.tenants[t]
		if tq == nil || tq.h.Len() == 0 {
			delete(lv.tenants, t)
			lv.ring = append(lv.ring[:lv.pos], lv.ring[lv.pos+1:]...)
			continue
		}
		if cost := tq.h[0].job.Size; tq.deficit >= cost {
			tq.deficit -= cost
			lv.size--
			return heap.Pop(&tq.h).(queued)
		}
		tq.deficit += opts.quantum
		lv.pos++
	}
}

// queued is one waiting job plus its queue bookkeeping: arrival order
// and the clock time it entered the queue (for delay accounting and
// CoDel shedding).
type queued struct {
	job Job
	seq int64
	enq float64
}

// before is the strict-mode ordering (and the within-tenant ordering in
// fair mode, where priorities are equal by construction).
func (a queued) before(b queued) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	ad, bd := a.job.Deadline, b.job.Deadline
	if ad != bd {
		// 0 = no deadline = least urgent.
		if ad == 0 {
			return false
		}
		if bd == 0 {
			return true
		}
		return ad < bd
	}
	return a.seq < b.seq
}

type jobHeap []queued

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(queued)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
