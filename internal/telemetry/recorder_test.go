package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRecorderRetentionOnFailure(t *testing.T) {
	now := 0.0
	r := NewFlightRecorder(func() float64 { return now }, 8, 4)
	tr := r.Begin()
	now = 1
	tr.Note("job.elect", String("route", "detour"))
	now = 2
	tr.Note("job.reroute", Int("parked", 1))
	now = 3
	tr.Note("job.park", String("kind", "budget"))
	r.Finish(tr, "job-a", true)

	kept := r.Retained()
	if len(kept) != 1 || !kept[0].Failed {
		t.Fatalf("retained = %+v, want one failed trace", kept)
	}
	got := kept[0]
	if got.Seen != 3 || len(got.Events) != 3 || got.Dropped != 0 {
		t.Fatalf("trace = %+v", got)
	}
	kinds := []string{"job.elect", "job.reroute", "job.park"}
	for i, ev := range got.Events {
		if ev.Kind != kinds[i] || ev.At != float64(i+1) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if !strings.Contains(got.Events[0].String(), "route=detour") {
		t.Fatalf("event render = %q", got.Events[0].String())
	}
	if fin, failed := r.Counts(); fin != 1 || failed != 1 {
		t.Fatalf("counts = %d/%d", fin, failed)
	}
	// Notes against a finished handle are dropped; a double Finish
	// counts once.
	tr.Note("job.ghost")
	r.Finish(tr, "job-a", true)
	if fin, _ := r.Counts(); fin != 1 {
		t.Fatalf("double finish counted: fin = %d", fin)
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d", r.Live())
	}
}

func TestRecorderTruncationOnSuccess(t *testing.T) {
	r := NewFlightRecorder(nil, 8, 4)
	tr := r.Begin()
	tr.Note("job.elect")
	tr.Note("job.done")
	r.Finish(tr, "ok", false)
	kept := r.Retained()
	if len(kept) != 1 || kept[0].Failed {
		t.Fatalf("retained = %+v", kept)
	}
	if kept[0].Seen != 2 || len(kept[0].Events) != 0 {
		t.Fatalf("success trace should keep counts but drop events: %+v", kept[0])
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d", r.Live())
	}
}

func TestRecorderPerJobCap(t *testing.T) {
	r := NewFlightRecorder(nil, 3, 4)
	tr := r.Begin()
	for i := 0; i < 7; i++ {
		tr.Note("job.attempt", Int("n", i))
	}
	r.Finish(tr, "busy", true)
	got := r.Retained()[0]
	if got.Seen != 7 || got.Dropped != 4 || len(got.Events) != 3 {
		t.Fatalf("trace = seen %d dropped %d len %d", got.Seen, got.Dropped, len(got.Events))
	}
	// FIFO eviction keeps the newest events.
	if got.Events[0].Attrs["n"] != "4" || got.Events[2].Attrs["n"] != "6" {
		t.Fatalf("kept events = %+v", got.Events)
	}
}

func TestRecorderNotePairCap(t *testing.T) {
	r := NewFlightRecorder(nil, 8, 4)
	tr := r.Begin()
	tr.Note("job.big", Int("a", 1), Float64("b", 2), String("c", "3"), Bool("d", true))
	r.Finish(tr, "j", true)
	ev := r.Retained()[0].Events[0]
	if len(ev.Attrs) != maxNotePairs {
		t.Fatalf("attrs = %v, want %d pairs", ev.Attrs, maxNotePairs)
	}
	if ev.Attrs["a"] != "1" || ev.Attrs["c"] != "3" {
		t.Fatalf("attrs = %v", ev.Attrs)
	}
}

// finishOne is the test shorthand for a job that records a single event
// (or none).
func finishOne(r *FlightRecorder, job, kind string, failed bool) {
	tr := r.Begin()
	if kind != "" {
		tr.Note(kind)
	}
	r.Finish(tr, job, failed)
}

func TestRecorderFinishWithoutTrace(t *testing.T) {
	r := NewFlightRecorder(nil, 8, 4)
	// A job that never recorded anything (shed in queue, recording
	// attached mid-run) still counts and keeps an empty marker.
	r.Finish(Trace{}, "shed", true)
	kept := r.Retained()
	if len(kept) != 1 || !kept[0].Failed || kept[0].Seen != 0 || len(kept[0].Events) != 0 {
		t.Fatalf("retained = %+v", kept)
	}
	if fin, failed := r.Counts(); fin != 1 || failed != 1 {
		t.Fatalf("counts = %d/%d", fin, failed)
	}
}

func TestRecorderRetainedBoundPrefersFailures(t *testing.T) {
	r := NewFlightRecorder(nil, 8, 3)
	finishOne(r, "f1", "job.fail", true)
	finishOne(r, "s1", "", false)
	finishOne(r, "f2", "job.fail", true)
	finishOne(r, "s2", "", false) // bound hit: evicts s1, not a failure
	kept := r.Retained()
	if len(kept) != 3 {
		t.Fatalf("retained = %d, want 3", len(kept))
	}
	var jobs []string
	for _, k := range kept {
		jobs = append(jobs, k.Job)
	}
	want := []string{"f1", "f2", "s2"} // failures first, then by name
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("retained jobs = %v, want %v", jobs, want)
		}
	}
	// All-failed window: the oldest failure finally gives way.
	finishOne(r, "f3", "job.fail", true)
	finishOne(r, "f4", "job.fail", true)
	jobs = jobs[:0]
	for _, k := range r.Retained() {
		jobs = append(jobs, k.Job)
	}
	want = []string{"f2", "f3", "f4"}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("retained jobs = %v, want %v", jobs, want)
		}
	}
}

// TestRecorderStaleHandle races a finished job's straggler notes
// against its Finish and against the reuse of its buffer by the next
// Begin: none may land in the next job's trace or count in its Seen.
func TestRecorderStaleHandle(t *testing.T) {
	r := NewFlightRecorder(nil, 64, 4)
	reused := 0
	for i := 0; i < 200; i++ {
		old := r.Begin()
		old.Note("old.elect")
		started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			old.Note("old.straggler", Int("i", i))
			close(started)
			for {
				select {
				case <-stop:
					return
				default:
					old.Note("old.straggler", Int("i", i))
				}
			}
		}()
		<-started
		r.Finish(old, "old", false)
		cur := r.Begin()
		if cur.buf == old.buf {
			reused++
		}
		cur.Note("new.elect")
		cur.Note("new.attempt", Int("n", 1))
		name := fmt.Sprintf("new-%03d", i)
		r.Finish(cur, name, true)
		close(stop)
		<-done
		r.Finish(old, "old", false) // a second Finish of the stale handle counts once

		var got *JobTrace
		for _, k := range r.Retained() {
			if k.Job == name {
				got = &k
				break
			}
		}
		if got == nil {
			t.Fatalf("iteration %d: trace %s not retained", i, name)
		}
		if got.Seen != 2 || len(got.Events) != 2 {
			t.Fatalf("iteration %d: trace = seen %d, %d events, want 2 and 2", i, got.Seen, len(got.Events))
		}
		for _, ev := range got.Events {
			if !strings.HasPrefix(ev.Kind, "new.") {
				t.Fatalf("iteration %d: straggler event %q landed in the next job's trace", i, ev.Kind)
			}
		}
	}
	if fin, failed := r.Counts(); fin != 400 || failed != 200 {
		t.Fatalf("counts = %d/%d, want 400/200", fin, failed)
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d", r.Live())
	}
	if reused == 0 {
		t.Fatal("no Begin reused a finished buffer; the test raced nothing")
	}
}

// recordSuccess is one dispatch-shaped job that succeeds: an election,
// an attempt and the terminal note, each with typed attributes.
func recordSuccess(r *FlightRecorder, via string) {
	tr := r.Begin()
	tr.Note("job.elect", Concat("route", "via ", via), Bool("cache", true))
	tr.Note("job.attempt", Int("n", 1), Concat("route", "via ", via))
	tr.Note("job.done", Float64("sec", 0.25), Concat("route", "via ", via))
	r.Finish(tr, "ok", false)
}

func TestRecorderSuccessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so a recycled buffer can be missing")
	}
	r := NewFlightRecorder(nil, 32, 4)
	via := strings.Repeat("x", 8) // a heap string, like a DTN name read at run time
	for i := 0; i < 8; i++ {
		recordSuccess(r, via) // warm the free list and the retained ring
	}
	if n := testing.AllocsPerRun(200, func() { recordSuccess(r, via) }); n != 0 {
		t.Fatalf("a successful job's trace allocates %v times, want 0", n)
	}
}

// BenchmarkRecorderSuccess: one op is one successful job's trace, Begin
// through three notes to Finish.
func BenchmarkRecorderSuccess(b *testing.B) {
	r := NewFlightRecorder(nil, 32, 4)
	via := strings.Repeat("x", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordSuccess(r, via)
	}
}

// TestAttrRendersLikeStrconv pins every attribute kind to the strconv
// call its value replaced, so retained traces keep their bytes.
func TestAttrRendersLikeStrconv(t *testing.T) {
	for _, c := range []struct {
		a    Attr
		want string
	}{
		{Int("n", 0), strconv.Itoa(0)},
		{Int("n", 3), strconv.Itoa(3)},
		{Int("n", -42), strconv.Itoa(-42)},
		{Int("n", math.MaxInt), strconv.Itoa(math.MaxInt)},
		{Int("n", math.MinInt), strconv.Itoa(math.MinInt)},
		{Float64("x", 0), strconv.FormatFloat(0, 'g', -1, 64)},
		{Float64("x", math.Copysign(0, -1)), strconv.FormatFloat(math.Copysign(0, -1), 'g', -1, 64)},
		{Float64("x", math.NaN()), strconv.FormatFloat(math.NaN(), 'g', -1, 64)},
		{Float64("x", math.Inf(1)), strconv.FormatFloat(math.Inf(1), 'g', -1, 64)},
		{Float64("x", math.Inf(-1)), strconv.FormatFloat(math.Inf(-1), 'g', -1, 64)},
		{Float64("x", 0.1), strconv.FormatFloat(0.1, 'g', -1, 64)},
		{Float64("x", 1e21), strconv.FormatFloat(1e21, 'g', -1, 64)},
		{Float64("x", 5e-324), strconv.FormatFloat(5e-324, 'g', -1, 64)},
		{Float64("x", math.MaxFloat64), strconv.FormatFloat(math.MaxFloat64, 'g', -1, 64)},
		{Float64("x", 2.5e-3), strconv.FormatFloat(2.5e-3, 'g', -1, 64)},
		{Bool("b", true), strconv.FormatBool(true)},
		{Bool("b", false), strconv.FormatBool(false)},
		{String("s", ""), ""},
		{String("s", "route down"), "route down"},
		{Concat("s", "via ", "UAlberta"), "via UAlberta"},
		{Concat("s", "via ", ""), "via "},
		{Concat("s", "", "x"), "x"},
	} {
		if got := c.a.Value(); got != c.want {
			t.Errorf("%s attr %+v renders %q, want %q", c.a.Key, c.a, got, c.want)
		}
	}
	// A retained trace stores the same rendering.
	r := NewFlightRecorder(nil, 8, 4)
	tr := r.Begin()
	tr.Note("job.reroute", Int("n", 2), Float64("parked_s", math.Copysign(0, -1)), Concat("route", "via ", "UAlberta"))
	r.Finish(tr, "j", true)
	attrs := r.Retained()[0].Events[0].Attrs
	if attrs["n"] != "2" || attrs["parked_s"] != "-0" || attrs["route"] != "via UAlberta" {
		t.Fatalf("retained attrs = %v", attrs)
	}
}
