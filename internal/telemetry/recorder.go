package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"detournet/internal/tracelog"
)

// FlightRecorder keeps a bounded per-job decision trace: every routing
// election, retry, reroute, park, and failure classification a job goes
// through. When a job finishes the recorder applies the retention
// policy: failed (or parked-out) jobs keep their full trace — up to the
// per-job cap, with a drop counter — while successful jobs are
// truncated to a bare completion marker. The retained set is itself
// bounded FIFO, so a long soak cannot grow memory without bound.
//
// Recording is hot-path work (every job pays for it whether or not it
// fails), so a job that succeeds costs no allocation: Begin takes a
// trace buffer from a free list the recorder owns and Finish returns it
// there; events are compact typed attributes (no attribute maps, no
// formatted values), rendered to strings only at retention time and
// only for traces that are actually kept. The only recorder-wide lock
// is taken at Finish.
//
// A handle is a small value naming its buffer and the buffer's
// generation. Finish bumps the generation before it recycles the
// buffer, so a stale handle — one already finished — can never write
// into the trace of the job that reuses the buffer: its notes are
// dropped and a second Finish of it counts once. The scheduler uses a
// handle only on the job's worker goroutine, so today no hedge
// straggler holds one; the check keeps the recycled buffers safe for
// any caller that does keep a handle past Finish, instead of relying
// on every caller to drop it.
//
// A nil *FlightRecorder (and the zero Trace it hands out) is safe
// everywhere; instrumented code never guards.
type FlightRecorder struct {
	now      func() float64
	perJob   int
	retained int

	live atomic.Int64 // handles begun and not yet finished
	free sync.Pool    // *traceBuf, recycled by Finish

	mu     sync.Mutex
	kept   []JobTrace // terminal traces, FIFO-bounded at retained
	fin    int        // total finished
	failed int        // finished failed (trace retained in full)
}

// maxNotePairs is the inline attribute capacity of one recorded event.
// Attributes past it are dropped; every instrumentation site stays
// under it.
const maxNotePairs = 3

// inlineEvents is how many events a trace buffer holds before it grows;
// only jobs with longer decision histories (retry storms) spill to a
// second allocation, and a grown buffer keeps it when it is recycled.
const inlineEvents = 4

// attrKind tags how an Attr's value is stored and rendered.
type attrKind uint8

const (
	kindString attrKind = iota // str + str2
	kindInt                    // num holds int64 bits
	kindFloat                  // num holds IEEE 754 bits
	kindBool                   // num is 0 or 1
)

// Attr is one typed key/value attribute of a recorded event. Its value
// is stored unformatted and rendered only if the trace is retained, so
// building one never allocates.
type Attr struct {
	Key  string
	kind attrKind
	str  string // string value, or the first part of a Concat
	str2 string // second part of a Concat
	num  uint64
}

// String is a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, str: v} }

// Concat is a string attribute whose value is a+b, joined only when the
// trace is rendered (core.Route's "via <dtn>" form, say).
func Concat(key, a, b string) Attr { return Attr{Key: key, str: a, str2: b} }

// Int is an integer attribute, rendered as strconv.Itoa renders it.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: uint64(int64(v))} }

// Float64 is a float attribute, rendered as strconv.FormatFloat(v, 'g',
// -1, 64) renders it.
func Float64(key string, v float64) Attr {
	return Attr{Key: key, kind: kindFloat, num: math.Float64bits(v)}
}

// Bool is a boolean attribute, rendered as strconv.FormatBool renders it.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value renders the attribute's value.
func (a Attr) Value() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindFloat:
		return strconv.FormatFloat(math.Float64frombits(a.num), 'g', -1, 64)
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	}
	if a.str2 == "" {
		return a.str
	}
	return a.str + a.str2
}

// recEvent is the compact live representation of one decision event:
// typed attributes inline, so the success fast path never allocates an
// attribute map or formats a value.
type recEvent struct {
	at    float64
	kind  string
	n     int
	attrs [maxNotePairs]Attr
}

func (e *recEvent) event() tracelog.Event {
	var attrs map[string]any
	if e.n > 0 {
		attrs = make(map[string]any, e.n)
		for _, a := range e.attrs[:e.n] {
			attrs[a.Key] = a.Value()
		}
	}
	return tracelog.Event{At: e.at, Kind: e.kind, Attrs: attrs}
}

// traceBuf is the recyclable storage behind a Trace. gen names the job
// currently recording into it; mu guards every field.
type traceBuf struct {
	mu      sync.Mutex
	gen     uint64
	buf     []recEvent
	inline  [inlineEvents]recEvent
	seen    int
	dropped int
}

// Trace is the live recording handle for one job, obtained once per job
// via Begin and handed back to Finish. It is a value: copies name the
// same buffer and generation. Notes take only the buffer's own lock,
// never the recorder's.
type Trace struct {
	rec *FlightRecorder
	buf *traceBuf
	gen uint64
}

// JobTrace is the retained decision history of one finished job.
type JobTrace struct {
	Job     string
	Events  []tracelog.Event
	Dropped int  // events evicted by the per-job cap
	Seen    int  // total events noted, including dropped/truncated
	Failed  bool // retention reason; false = truncated success
}

// NewFlightRecorder builds a recorder stamping events with now(),
// keeping at most perJob events per live trace and the last retained
// failed traces. Zero values pick defaults (64 events, 8 traces); a nil
// now stamps every event at 0.
func NewFlightRecorder(now func() float64, perJob, retained int) *FlightRecorder {
	if perJob <= 0 {
		perJob = 64
	}
	if retained <= 0 {
		retained = 8
	}
	if now == nil {
		now = func() float64 { return 0 }
	}
	return &FlightRecorder{
		now:      now,
		perJob:   perJob,
		retained: retained,
	}
}

// Begin opens a live trace for one job. The handle is not registered
// anywhere — the caller threads it through the job's lifetime and hands
// it back to Finish, which names the job — so beginning takes no
// recorder lock, and with a recycled buffer no allocation.
func (r *FlightRecorder) Begin() Trace {
	if r == nil {
		return Trace{}
	}
	b, _ := r.free.Get().(*traceBuf)
	if b == nil {
		b = &traceBuf{}
		b.buf = b.inline[:0]
	}
	// No lock: only the Finish that put b in the pool wrote gen, and a
	// Put synchronizes before the Get that returns the same buffer.
	r.live.Add(1)
	return Trace{rec: r, buf: b, gen: b.gen}
}

// Recording reports whether the handle came from a recorder. Notes on
// any handle are safe; a call site checks this only to skip computing
// an attribute value that costs work of its own, such as err.Error().
func (t Trace) Recording() bool { return t.buf != nil }

// Note appends a decision event to the trace. At most maxNotePairs
// attributes are kept. Oldest events are evicted FIFO once the per-job
// cap is hit; notes after Finish are dropped.
func (t Trace) Note(kind string, attrs ...Attr) {
	b := t.buf
	if b == nil {
		return
	}
	at := t.rec.now()
	b.mu.Lock()
	if b.gen != t.gen {
		b.mu.Unlock()
		return
	}
	b.seen++
	if len(b.buf) >= t.rec.perJob {
		copy(b.buf, b.buf[1:])
		b.buf = b.buf[:len(b.buf)-1]
		b.dropped++
	}
	b.buf = append(b.buf, recEvent{at: at, kind: kind})
	e := &b.buf[len(b.buf)-1]
	e.n = copy(e.attrs[:], attrs)
	b.mu.Unlock()
}

// Finish applies the retention policy to a job's trace. Failed jobs
// keep everything recorded so far — rendered as tracelog events here,
// the one place that formats values and pays for attribute maps;
// successful jobs are truncated to their event count. tr may be the
// zero Trace (a job that never recorded anything, or recording off
// mid-stream): an empty terminal trace is kept so counts stay honest.
// Finishing the same handle twice counts once.
func (r *FlightRecorder) Finish(tr Trace, job string, failed bool) {
	if r == nil {
		return
	}
	kept := JobTrace{Job: job, Failed: failed}
	if b := tr.buf; b != nil {
		b.mu.Lock()
		if b.gen != tr.gen {
			b.mu.Unlock()
			return
		}
		b.gen++
		kept.Seen = b.seen
		if failed {
			kept.Dropped = b.dropped
			kept.Events = make([]tracelog.Event, len(b.buf))
			for i := range b.buf {
				kept.Events[i] = b.buf[i].event()
			}
		}
		b.buf = b.buf[:0]
		b.seen, b.dropped = 0, 0
		b.mu.Unlock()
		r.free.Put(b)
		r.live.Add(-1)
	}
	r.mu.Lock()
	r.fin++
	if failed {
		r.failed++
	}
	r.kept = append(r.kept, kept)
	if len(r.kept) > r.retained {
		// Evict the oldest truncated-success marker first; only
		// displace a failed trace when everything retained is failed.
		evict := 0
		for i := range r.kept {
			if !r.kept[i].Failed {
				evict = i
				break
			}
		}
		copy(r.kept[evict:], r.kept[evict+1:])
		r.kept = r.kept[:len(r.kept)-1]
	}
	r.mu.Unlock()
}

// Retained returns copies of the kept terminal traces, failed traces
// first, each group ordered by job name, so reports are deterministic.
func (r *FlightRecorder) Retained() []JobTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobTrace, 0, len(r.kept))
	for _, tr := range r.kept {
		cp := tr
		cp.Events = append([]tracelog.Event(nil), tr.Events...)
		out = append(out, cp)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Failed != out[j].Failed {
			return out[i].Failed
		}
		return out[i].Job < out[j].Job
	})
	return out
}

// Live returns the number of in-flight traces.
func (r *FlightRecorder) Live() int {
	if r == nil {
		return 0
	}
	return int(r.live.Load())
}

// Counts reports (finished, failed-and-retained-in-full).
func (r *FlightRecorder) Counts() (finished, failed int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fin, r.failed
}
