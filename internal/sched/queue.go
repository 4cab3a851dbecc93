package sched

import (
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
		o.quantum = drrQuantum
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
// ErrQueueFull / ErrTenantQuota.
// Jobs whose deadline passes while queued are expired *in place* by a
// sweep that runs on pop and on push-when-full, so dead jobs stop
// occupying slots; expired jobs are handed back to the caller, which
// owns finishing them.
type jobQueue struct {
	mu   sync.Mutex
	cond *sync.Cond // waiters in pop (queue empty)
	opts queueOpts

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
	return it, expired, true
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

// close wakes all blocked receivers; they observe closed.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// add inserts one job. Caller holds q.mu and has checked bounds.
func (q *jobQueue) add(j Job, now float64) {
	q.seq++
	it := &queued{job: j, seq: q.seq, enq: now}
	q.size++
	q.byTenant[j.Tenant]++
	if d := j.Deadline; d > 0 && (q.nextDeadline == 0 || d < q.nextDeadline) {
		q.nextDeadline = d
	}
	if !q.opts.fair {
		q.h.push(it)
	} else {
		q.levelFor(j.Priority).add(it)
	}
	q.cond.Signal()
}

// remove updates occupancy bookkeeping for a dequeued item. Caller
// holds q.mu; the item is already out of its heap.
func (q *jobQueue) remove(it *queued) {
	q.size--
	if n := q.byTenant[it.job.Tenant] - 1; n > 0 {
		q.byTenant[it.job.Tenant] = n
	} else {
		delete(q.byTenant, it.job.Tenant)
	}
}

// next picks the next item per the discipline and extracts it from its
// heap (occupancy bookkeeping is remove's job). Caller holds q.mu and
// guarantees size > 0.
func (q *jobQueue) next() *queued {
	if !q.opts.fair {
		return q.h.pop()
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
	// filter moves h's dead jobs into exp and re-heapifies the rest,
	// returning how many it took.
	filter := func(h *jobHeap) int {
		kept := (*h)[:0]
		for _, it := range *h {
			if d := it.job.Deadline; d > 0 && now > d {
				exp = append(exp, *it)
			} else {
				kept = append(kept, it)
				note(d)
			}
		}
		n := len(*h) - len(kept)
		clear((*h)[len(kept):])
		*h = kept
		h.init()
		return n
	}
	if !q.opts.fair {
		filter(&q.h)
	} else {
		for _, prio := range q.prios {
			lv := q.levels[prio]
			if lv == nil {
				continue
			}
			for _, t := range lv.ring {
				if tq := lv.tenants[t]; tq != nil {
					lv.size -= filter(&tq.h)
				}
			}
		}
	}
	sort.Slice(exp, func(i, j int) bool { return exp[i].seq < exp[j].seq })
	for i := range exp {
		q.remove(&exp[i])
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

func (lv *drrLevel) add(it *queued) {
	tq := lv.tenants[it.job.Tenant]
	if tq == nil {
		tq = &tenantQ{}
		lv.tenants[it.job.Tenant] = tq
		lv.ring = append(lv.ring, it.job.Tenant)
	}
	tq.h.push(it)
	lv.size++
}

// take runs the DRR scan: visit tenants round-robin, refilling each
// visited tenant's deficit by quantum until one can afford its
// head job (cost = bytes). An idle tenant leaves the ring and its
// deficit resets, per classic DRR. Caller guarantees lv.size > 0.
func (lv *drrLevel) take(opts queueOpts) *queued {
	for {
		if lv.pos >= len(lv.ring) {
			lv.pos = 0
		}
		t := lv.ring[lv.pos]
		tq := lv.tenants[t]
		if tq == nil || len(tq.h) == 0 {
			delete(lv.tenants, t)
			lv.ring = append(lv.ring[:lv.pos], lv.ring[lv.pos+1:]...)
			continue
		}
		if cost := tq.h[0].job.Size; tq.deficit >= cost {
			tq.deficit -= cost
			lv.size--
			return tq.h.pop()
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
func (a *queued) before(b *queued) bool {
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

// jobHeap is a binary min-heap of queued jobs on the before order. It
// holds pointers, so sifting moves 8-byte words instead of whole jobs
// and nothing is boxed on the way in or out. before ends in the unique
// seq, so the order is total: the pop sequence is fixed by the jobs
// alone, whatever the heap's internal layout.
type jobHeap []*queued

func (h jobHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h jobHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r // right child
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// init establishes the heap order over the whole slice.
func (h jobHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *jobHeap) push(it *queued) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the first job; the heap must not be empty.
func (h *jobHeap) pop() *queued {
	old := *h
	n := len(old) - 1
	it := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	h.down(0)
	return it
}
