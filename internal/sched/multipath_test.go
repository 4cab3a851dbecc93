package sched_test

import (
	"math/rand"
	"testing"

	"detournet/internal/faults"
	"detournet/internal/multipath"
	"detournet/internal/replay"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// chunkCoverage asserts the ledger invariant end-to-end: every chunk of
// the striped transfer was committed by exactly one path — nothing
// lost, nothing double-committed.
func chunkCoverage(t *testing.T, rep *multipath.Report) {
	t.Helper()
	seen := make(map[int]int)
	for _, pr := range rep.Paths {
		for _, c := range pr.Chunks {
			seen[c]++
		}
	}
	for i := 0; i < rep.NumChunks; i++ {
		if seen[i] != 1 {
			t.Fatalf("chunk %d committed %d times (want exactly 1)", i, seen[i])
		}
	}
	if len(seen) != rep.NumChunks {
		t.Fatalf("committed %d distinct chunks, layout has %d", len(seen), rep.NumChunks)
	}
}

// layout recomputes a report's chunk sizes and asserts they are the
// report's chunks and cover exactly its bytes.
func layout(t *testing.T, rep *multipath.Report) []float64 {
	t.Helper()
	sizes := multipath.Layout(rep.Size, rep.Chunk, len(rep.Paths), rep.TailSplit)
	var sum float64
	for _, sz := range sizes {
		sum += sz
	}
	if len(sizes) != rep.NumChunks || sum != rep.Size {
		t.Fatalf("Layout gives %d chunks over %.0f B, report says %d over %.0f B", len(sizes), sum, rep.NumChunks, rep.Size)
	}
	return sizes
}

// TestMultipathAcceptance pins the issue's acceptance numbers at seed
// 2015: striping beats the best single path by >=1.4x on at least one
// pair, never lands more than 5% below it on any pair, and no pair
// silently degrades to a single lane.
func TestMultipathAcceptance(t *testing.T) {
	o, pairs := replay.Multipath(2015)
	if err := replay.MultipathSanity(pairs); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	best, worst := replay.Speedups(pairs)
	if best < 1.4 {
		t.Errorf("best speedup %.2fx, want >= 1.4x", best)
	}
	if worst < 1/1.05 {
		t.Errorf("worst speedup %.2fx, want >= %.3fx (<=1.05x worse guard)", worst, 1/1.05)
	}
	if o.Stats.MultipathJobs != int64(len(pairs)) {
		t.Errorf("MultipathJobs = %d, want %d", o.Stats.MultipathJobs, len(pairs))
	}
	if o.Stats.MultipathDegraded != 0 {
		t.Errorf("MultipathDegraded = %d, want 0", o.Stats.MultipathDegraded)
	}
	for _, pr := range pairs {
		if pr.Striped.Err != nil {
			t.Errorf("%s->%s striped failed: %v", pr.Client, pr.Provider, pr.Striped.Err)
			continue
		}
		chunkCoverage(t, pr.Striped.Multipath)
	}
}

// TestMultipathChurnBound drives the 480 MB churn leg across several
// seeds: the transfer must complete, cover every chunk exactly once,
// and keep re-sent bytes within one chunk per failure on every path.
func TestMultipathChurnBound(t *testing.T) {
	for _, seed := range []int64{7, 42, 2015} {
		res := replay.MultipathChurn(seed).Results[0]
		if res.Err != nil {
			t.Fatalf("seed %d: churn transfer failed: %v", seed, res.Err)
		}
		rep := res.Multipath
		if rep == nil {
			t.Fatalf("seed %d: degraded to single-path under churn", seed)
		}
		chunkCoverage(t, rep)
		if !replay.WithinResendBound(res) {
			t.Errorf("seed %d: re-sent bytes exceed one chunk per failure: %+v", seed, rep.Paths)
		}
		layout(t, rep)
		// At the pinned seed the first withdraw (t=60) is guaranteed to
		// land mid-transfer; the scheduler must have actually absorbed it.
		churned := 0
		for _, pr := range rep.Paths {
			churned += pr.Failures + pr.Drains
		}
		if seed == 2015 && churned == 0 {
			t.Error("seed 2015: churn storm caused no failures or drains — schedule not exercised")
		}
	}
}

// TestMultipathChurnDigestProperty is the end-to-end integrity property
// under scripted route churn: upload real bytes striped across lanes
// while the reconvergence storm withdraws sessions mid-transfer, then
// prove the reassembled object is the source object. The scheduler's
// commit already compares the provider-echoed digest against Job.MD5
// (so a pass means the composed object matched); on top of that we
// slice the source buffer at the exact Layout boundaries and check that
// concatenating the committed chunks in index order reproduces the
// source digest.
func TestMultipathChurnDigestProperty(t *testing.T) {
	const seed = 2015
	size := 240e6 // long enough to span the first withdraw at t=60
	buf := make([]byte, int(size))
	rand.New(rand.NewSource(seed)).Read(buf)
	md5 := rsyncx.Checksum(buf)

	o := replay.Run(replay.Spec{
		Seed:   seed,
		World:  []scenario.Option{scenario.WithDynamicRouting()},
		Faults: faults.ChurnSchedule(),
		Fleet: []replay.Arrival{{Job: sched.Job{
			Tenant: "digest", Client: scenario.UBC, Provider: scenario.GoogleDrive,
			Name: "digest.bin", Size: size, MD5: md5, Mode: sched.JobMultipath,
		}}},
	})
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	res := o.Results[0]
	if res.Err != nil {
		t.Fatalf("striped transfer failed under churn: %v", res.Err)
	}
	rep := res.Multipath
	if rep == nil {
		t.Fatal("degraded to single-path")
	}
	chunkCoverage(t, rep)

	sizes := layout(t, rep)
	parts := make([][]byte, len(sizes))
	off := 0
	for i, sz := range sizes {
		parts[i] = buf[off : off+int(sz)]
		off += int(sz)
	}
	if got := rsyncx.ChecksumCat(parts...); got != md5 {
		t.Fatalf("reassembled digest %s != source digest %s", got, md5)
	}
	fails, drains := 0, 0
	for _, pr := range rep.Paths {
		fails += pr.Failures
		drains += pr.Drains
	}
	t.Logf("digest ok: %d chunks over %d paths, %d fails, %d drains, %.1f MB re-sent",
		rep.NumChunks, len(rep.Paths), fails, drains, res.Rewritten/1e6)
}
