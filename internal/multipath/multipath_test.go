package multipath

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"detournet/internal/core"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tracelog"
)

// drive runs fn as a workload process and drains the engine.
func drive(t *testing.T, fn func(p *simproc.Proc)) {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	done := false
	r.Go("test", func(p *simproc.Proc) {
		fn(p)
		done = true
	})
	r.Drive()
	if !done {
		t.Fatal("workload did not finish")
	}
}

// fakeUploader models a path of fixed rate with an optional per-attempt
// failure schedule keyed by part name.
type fakeUploader struct {
	rate  float64 // bytes/second
	fails map[string]int
	sent  float64
}

func (f *fakeUploader) UploadChunk(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error {
	p.Sleep(simclock.Duration(size / f.rate))
	f.sent += size
	if f.fails[part] > 0 {
		f.fails[part]--
		return fmt.Errorf("fake: injected failure on %s", part)
	}
	ck.Hop2High = size
	return nil
}

// coverage verifies the ledger invariant: every chunk committed by
// exactly one path, no chunk missing, none duplicated.
func coverage(t *testing.T, rep Report) {
	t.Helper()
	seen := make(map[int]int)
	for _, pr := range rep.Paths {
		for _, c := range pr.Chunks {
			seen[c]++
		}
	}
	if len(seen) != rep.NumChunks {
		t.Fatalf("committed %d distinct chunks, want %d", len(seen), rep.NumChunks)
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("chunk %d committed %d times", c, n)
		}
	}
}

func TestStripeProportionalAndCommit(t *testing.T) {
	var gotParts []string
	var rep Report
	var err error
	fast := &fakeUploader{rate: 8e6}
	slow := &fakeUploader{rate: 2e6}
	drive(t, func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "big.bin", Size: 80e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: fast},
			{ID: 1, Route: core.ViaRoute("UAlberta"), Upload: slow},
		}, Env{Commit: func(p *simproc.Proc, parts []string) error {
			gotParts = append([]string(nil), parts...)
			return nil
		}})
	})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	if rep.Paths[0].Bytes <= rep.Paths[1].Bytes {
		t.Errorf("fast path carried %.0fB, slow %.0fB; want throughput-proportional split",
			rep.Paths[0].Bytes, rep.Paths[1].Bytes)
	}
	// 80 MB over 2 paths: 8 full 8 MB chunks + the 16 MB tail split into
	// 8 quarter chunks.
	if len(gotParts) != 16 || gotParts[0] != "big.bin.mp0000" || gotParts[15] != "big.bin.mp0015" {
		t.Errorf("commit got parts %v", gotParts)
	}
	// Both lanes ran concurrently: the wall clock must beat the best
	// single path (80MB / 8MB/s = 10s) by a clear margin.
	if rep.Seconds >= 10 {
		t.Errorf("striped transfer took %.1fs, single fast path would take 10s", rep.Seconds)
	}
	if rep.Fairness <= 0.5 || rep.Fairness > 1 {
		t.Errorf("fairness = %v", rep.Fairness)
	}
}

func TestHedgeReclaimsStraggler(t *testing.T) {
	// The crawl path grabs a chunk early and takes ~400s on it; the
	// fast path finishes the rest and must hedge the straggler's chunk
	// instead of idling until the crawl completes. At 64 MB the
	// duplication budget (9.6 MB) covers one full 8 MB chunk.
	var rep Report
	var err error
	drive(t, func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "h.bin", Size: 64e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 4e6}},
			{ID: 1, Route: core.ViaRoute("UMich"), Upload: &fakeUploader{rate: 0.02e6}},
		}, Env{})
	})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	if rep.HedgedChunks == 0 {
		t.Error("no chunk was hedged; fast path idled behind the straggler")
	}
	if rep.Seconds > 60 {
		t.Errorf("transfer took %.1fs; hedging should finish well under the straggler's 400s", rep.Seconds)
	}
	if rep.DuplicateBytes > hedgeMaxFrac*rep.Size {
		t.Errorf("duplicate bytes %.0f exceed hedgeMaxFrac budget %.0f", rep.DuplicateBytes, hedgeMaxFrac*rep.Size)
	}
}

func TestHedgeBudgetCapsDuplication(t *testing.T) {
	// A 16 MB transfer's duplication budget (2.4 MB) cannot fit one of
	// its 8 MB chunks, so the fast path may NOT duplicate: it waits for
	// the straggler.
	var rep Report
	var err error
	drive(t, func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "b.bin", Size: 16e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 8e6}},
			{ID: 1, Route: core.ViaRoute("UMich"), Upload: &fakeUploader{rate: 0.01e6}},
		}, Env{})
	})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	if rep.DuplicateBytes > hedgeMaxFrac*rep.Size {
		t.Errorf("duplicate bytes %.0f exceed hedgeMaxFrac budget %.0f", rep.DuplicateBytes, hedgeMaxFrac*rep.Size)
	}
	if rep.HedgedChunks != 0 || rep.DuplicateBytes != 0 {
		t.Errorf("no chunk fits the budget but hedged=%d dup=%.0f", rep.HedgedChunks, rep.DuplicateBytes)
	}
}

func TestFailureReleasesChunkToOtherPath(t *testing.T) {
	// Path 1 fails every dispatch (and its in-place retry) until it
	// retires; each chunk it claimed must come back to pending and land
	// via path 0.
	// 24 MB over two paths is too small for a split tail: three 8 MB
	// chunks.
	flaky := &fakeUploader{rate: 4e6, fails: map[string]int{}}
	for i := 0; i < 3; i++ {
		flaky.fails[PartName("f.bin", i)] = 99
	}
	var rep Report
	var err error
	drive(t, func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "f.bin", Size: 24e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 4e6}},
			{ID: 1, Route: core.ViaRoute("UAlberta"), Upload: flaky},
		}, Env{})
	})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	if rep.ResentChunks == 0 {
		t.Error("failed chunk was never released back to pending")
	}
	for _, pr := range rep.Paths {
		if pr.ID == 1 && len(pr.Chunks) > 0 {
			t.Errorf("flaky path committed chunks %v despite always failing", pr.Chunks)
		}
	}
}

func TestDrainMakeBeforeBreak(t *testing.T) {
	// Path 1's route is withdrawn mid-transfer: it must stop claiming
	// new chunks while unusable, then resume when the route returns.
	// The drain window [4s, 20s) is long enough that the path observes
	// it between chunks.
	var rep Report
	var err error
	via := core.ViaRoute("UAlberta")
	var eng *simclock.Engine
	e := simclock.NewEngine()
	eng = e
	r := simproc.New(e)
	r.Go("test", func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "d.bin", Size: 64e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 2e6}},
			{ID: 1, Route: via, Upload: &fakeUploader{rate: 2e6}},
		}, Env{Usable: func(route core.Route, existing bool) bool {
			if route != via {
				return true
			}
			now := float64(eng.Now())
			if now >= 4 && now < 20 {
				return existing // draining: finish existing, refuse new
			}
			return true
		}})
	})
	r.Drive()
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	drains := 0
	for _, pr := range rep.Paths {
		drains += pr.Drains
	}
	if drains == 0 {
		t.Error("withdrawn route never drained")
	}
	// Both paths still carried work: drain was make-before-break, not
	// tear-down.
	for _, pr := range rep.Paths {
		if len(pr.Chunks) == 0 {
			t.Errorf("path %d carried nothing", pr.ID)
		}
	}
}

func TestAllPathsRetiredFails(t *testing.T) {
	always := &fakeUploader{rate: 4e6, fails: map[string]int{}}
	for i := 0; i < 4; i++ {
		always.fails[PartName("x.bin", i)] = 99
	}
	var err error
	drive(t, func(p *simproc.Proc) {
		_, err = Run(p, Spec{Name: "x.bin", Size: 32e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: always},
		}, Env{})
	})
	if err == nil || !strings.Contains(err.Error(), "no usable path") {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestStallTimeout(t *testing.T) {
	var err error
	drive(t, func(p *simproc.Proc) {
		_, err = Run(p, Spec{Name: "s.bin", Size: 8e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 1e6}},
		}, Env{Usable: func(core.Route, bool) bool { return false }})
	})
	if err == nil || !strings.Contains(err.Error(), "no chunk committed") {
		t.Fatalf("err = %v, want stall", err)
	}
}

func TestAbortInvokedOnHedgeLoser(t *testing.T) {
	var aborted []int
	var rep Report
	var err error
	drive(t, func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "a.bin", Size: 64e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 8e6}},
			{ID: 1, Route: core.ViaRoute("UMich"), Upload: &fakeUploader{rate: 0.05e6}},
		}, Env{Abort: func(path Path) { aborted = append(aborted, path.ID) }})
	})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	if rep.HedgedChunks > 0 && len(aborted) == 0 {
		t.Error("hedge won but the losing duplicate was never aborted")
	}
}

// grayUploader crawls: it moves a chunk rate bytes per virtual second
// and gives up at the first second that finds its abort latch raised —
// a dispatch that serves no error, so only the lane watchdog stops it.
type grayUploader struct{ rate float64 }

func (g grayUploader) UploadChunk(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error {
	for moved := 0.0; moved < size; moved += g.rate {
		if ck.AbortRequested() {
			return fmt.Errorf("gray: %s aborted at %.0f B", part, moved)
		}
		p.Sleep(simclock.Duration(1))
	}
	ck.Hop2High = size
	return nil
}

// TestLaneWatchdogAbortsStalledLane: with a finite Env.Budget, a lane
// whose dispatch outlives its budget is reported as mp.lane.stall and
// aborted once, and the chunk it held is released at once and lands on
// the healthy lane. The duplication budget of a 24 MB transfer
// (3.6 MB) cannot fit one of its 8 MB chunks, so only the watchdog can
// take the chunk back.
func TestLaneWatchdogAbortsStalledLane(t *testing.T) {
	eng := simclock.NewEngine()
	log := tracelog.New(eng)
	var aborted []int
	var rep Report
	var err error
	r := simproc.New(eng)
	r.Go("test", func(p *simproc.Proc) {
		rep, err = Run(p, Spec{Name: "w.bin", Size: 24e6, Chunk: 8e6}, []Path{
			{ID: 0, Route: core.DirectRoute, Upload: &fakeUploader{rate: 4e6}},
			{ID: 1, Route: core.ViaRoute("UAlberta"), Upload: grayUploader{rate: 0.01e6}},
		}, Env{
			Abort:  func(path Path) { aborted = append(aborted, path.ID) },
			Budget: func(_ core.Route, size float64) float64 { return size / 1e6 },
			Trace:  log,
		})
	})
	r.Drive()
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, rep)
	stalls := log.Filter("mp.lane.stall")
	if len(stalls) != 1 {
		t.Fatalf("mp.lane.stall fired %d times, want once: the aborted chunk must leave the gray lane, not retry on it", len(stalls))
	}
	// The gray lane's 8 s budget is first seen spent at the t=10 poll;
	// the freed chunk then takes the healthy lane 2 s, and the
	// watchdog's next poll ends the run at t=15. A second full budget on
	// the gray lane would hold the chunk until t=20.
	if end := float64(eng.Now()); end > 15 {
		t.Fatalf("transfer ended at t=%.1f, want at most 15", end)
	}
	if id := stalls[0].Attrs[tracelog.AttrPath]; id != 1 {
		t.Fatalf("mp.lane.stall names path %v, want the gray path 1", id)
	}
	if len(aborted) == 0 || aborted[0] != 1 {
		t.Fatalf("aborted paths %v, want the gray path 1", aborted)
	}
	stalled := stalls[0].Attrs[tracelog.AttrChunk]
	for _, pr := range rep.Paths {
		for _, c := range pr.Chunks {
			if c == stalled && pr.ID != 0 {
				t.Errorf("stalled chunk %d committed by path %d, want the healthy path 0", c, pr.ID)
			}
		}
		if pr.ID == 1 && len(pr.Chunks) > 0 {
			t.Errorf("the gray path committed chunks %v", pr.Chunks)
		}
	}
}

// randomUploader fails with probability pFail per attempt, with a rate
// jittered per chunk — the scheduler must preserve exactly-once commit
// coverage under arbitrary failure interleavings.
type randomUploader struct {
	rng   *rand.Rand
	base  float64
	pFail float64
}

func (f *randomUploader) UploadChunk(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error {
	rate := f.base * (0.25 + 1.5*f.rng.Float64())
	p.Sleep(simclock.Duration(size / rate))
	if f.rng.Float64() < f.pFail {
		return fmt.Errorf("fake: random failure on %s", part)
	}
	ck.Hop2High = size
	return nil
}

func TestPropertyNoChunkLostOrDuplicated(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		var rep Report
		var err error
		drive(t, func(p *simproc.Proc) {
			rng := rand.New(rand.NewSource(seed))
			paths := []Path{
				{ID: 0, Route: core.DirectRoute, Upload: &randomUploader{rng: rng, base: 4e6, pFail: 0.15}},
				{ID: 1, Route: core.ViaRoute("UAlberta"), Upload: &randomUploader{rng: rng, base: 6e6, pFail: 0.15}},
				{ID: 2, Route: core.ViaRoute("UMich"), Upload: &randomUploader{rng: rng, base: 2e6, pFail: 0.15}},
			}
			rep, err = Run(p, Spec{Name: "p.bin", Size: 96e6, Chunk: 8e6}, paths, Env{})
		})
		if err != nil {
			// All-paths-retired is a legal outcome under heavy random
			// failure; the invariant is about successful runs.
			continue
		}
		coverage(t, rep)
		var committed float64
		for _, pr := range rep.Paths {
			committed += pr.Bytes
		}
		if math.Abs(committed-96e6) > 1 {
			t.Fatalf("seed %d: committed %.0fB, want 96MB exactly", seed, committed)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	render := func() string {
		var rep Report
		drive(t, func(p *simproc.Proc) {
			rng := rand.New(rand.NewSource(7))
			var err error
			rep, err = Run(p, Spec{Name: "det.bin", Size: 64e6, Chunk: 8e6}, []Path{
				{ID: 0, Route: core.DirectRoute, Upload: &randomUploader{rng: rng, base: 4e6, pFail: 0.1}},
				{ID: 1, Route: core.ViaRoute("UAlberta"), Upload: &randomUploader{rng: rng, base: 6e6, pFail: 0.1}},
			}, Env{})
			if err != nil {
				t.Fatal(err)
			}
		})
		var b bytes.Buffer
		if err := rep.WriteReport(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed produced different reports:\n%s\n---\n%s", a, b)
	}
}

func TestPartName(t *testing.T) {
	if got := PartName("file.bin", 7); got != "file.bin.mp0007" {
		t.Errorf("PartName = %q", got)
	}
	if got := PartName("file.bin", 1234); got != "file.bin.mp1234" {
		t.Errorf("PartName = %q", got)
	}
}

func TestLayout(t *testing.T) {
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	// Head of full chunks, tail split 4x over K chunks' worth.
	got := Layout(80e6, 8e6, 2, 4)
	if len(got) != 16 || got[0] != 8e6 || got[8] != 2e6 || sum(got) != 80e6 {
		t.Errorf("layout(80MB, 8MB, k=2, split=4) = %v", got)
	}
	// Small transfers and split=1 cut uniformly.
	for _, tc := range []struct {
		size  float64
		k     int
		split int
		want  int
	}{
		{80e6, 2, 1, 10},
		{81e6, 2, 1, 11},
		{16e6, 3, 4, 2}, // too small for a head
		{1, 2, 4, 1},
	} {
		got := Layout(tc.size, 8e6, tc.k, tc.split)
		if len(got) != tc.want || sum(got) != tc.size {
			t.Errorf("layout(%v, k=%d, split=%d) = %d chunks sum %v, want %d chunks",
				tc.size, tc.k, tc.split, len(got), sum(got), tc.want)
		}
	}
}
