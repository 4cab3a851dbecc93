package rsyncx

import (
	"testing"

	"detournet/internal/simproc"
)

func TestChecksumStable(t *testing.T) {
	a := Checksum([]byte("hello"))
	b := Checksum([]byte("hello"))
	c := Checksum([]byte("world"))
	if a != b || a == c || len(a) != 32 {
		t.Fatalf("checksums: %s %s %s", a, b, c)
	}
}

func TestChunkSums(t *testing.T) {
	if ChunkSum("abc", 0) == ChunkSum("abc", 1) {
		t.Fatal("chunk sums must differ by index")
	}
	if ChunkSum("abc", 0) == rotSum("abc", 0) {
		t.Fatal("rot sum must differ from healthy sum")
	}
	if n := ChunkCount(0); n != 1 {
		t.Fatalf("ChunkCount(0) = %d", n)
	}
	if n := ChunkCount(ManifestChunk*2 + 1); n != 3 {
		t.Fatalf("ChunkCount = %d", n)
	}
	if s := ChunkSpan(ManifestChunk*2+5, 2); s != 5 {
		t.Fatalf("tail span = %v", s)
	}
	bad := VerifyManifest([]string{ChunkSum("m", 0), rotSum("m", 1), ChunkSum("m", 2)}, "m")
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("VerifyManifest = %v", bad)
	}
}

func TestManifestAndRepair(t *testing.T) {
	rg := newRig(t)
	size := float64(ManifestChunk*2 + 4096)
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		if _, err := cl.PushSizedResumable(p, "m.bin", size, 0, 0, "digest"); err != nil {
			t.Errorf("push: %v", err)
			return
		}
		sums, err := cl.Manifest(p, "m.bin")
		if err != nil {
			t.Errorf("manifest: %v", err)
			return
		}
		if len(sums) != 3 || len(VerifyManifest(sums, "digest")) != 0 {
			t.Errorf("fresh staged file reports bad chunks: %v", sums)
			return
		}
		// Rot one chunk: only that chunk shows as bad, and repairing it
		// restores a clean manifest.
		if !rg.d.RotChunk("m.bin", 1) {
			t.Error("RotChunk refused a staged chunk")
			return
		}
		sums, _ = cl.Manifest(p, "m.bin")
		if bad := VerifyManifest(sums, "digest"); len(bad) != 1 || bad[0] != 1 {
			t.Errorf("bad chunks = %v, want [1]", bad)
			return
		}
		if err := cl.RepairChunk(p, "m.bin", 1, ChunkSpan(size, 1)); err != nil {
			t.Errorf("repair: %v", err)
			return
		}
		sums, _ = cl.Manifest(p, "m.bin")
		if bad := VerifyManifest(sums, "digest"); len(bad) != 0 {
			t.Errorf("chunks still bad after repair: %v", bad)
		}
	})
}

func TestScrubClampsRottenPartial(t *testing.T) {
	rg := newRig(t)
	size := float64(ManifestChunk * 4)
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		aborted := 0
		cl.Abort = func() bool { aborted++; return aborted > 2 } // land 2 chunks, then stop
		if _, err := cl.PushSizedResumable(p, "p.bin", size, 0, 0, "digest"); err != ErrAborted {
			t.Errorf("expected ErrAborted, got %v", err)
			return
		}
		if got := rg.d.PartialOffset("p.bin"); got != float64(ManifestChunk*2) {
			t.Errorf("partial = %v", got)
			return
		}
		// Rot the first landed chunk: the scrubbed offset falls back to
		// its start, so the resume rewrites it instead of trusting it.
		rg.d.RotChunk("p.bin", 0)
		if got := rg.d.PartialOffset("p.bin"); got != 0 {
			t.Errorf("scrubbed partial = %v, want 0", got)
			return
		}
		cl.Abort = nil
		sent, err := cl.PushSizedResumable(p, "p.bin", size, 0, 0, "digest")
		if err != nil || sent != size {
			t.Errorf("resume after scrub: sent=%v err=%v", sent, err)
			return
		}
		if _, ok := rg.d.Staged("p.bin"); !ok {
			t.Error("file not staged after repair push")
		}
	})
}

// TestAtomicPartialsSurviveCrash is the torn-write satellite: with the
// default two-phase write path a daemon crash mid-chunk leaves the
// partial exactly at its last committed offset, while the legacy
// in-place path (TornWrites) leaves a longer partial whose tail is
// garbage — which the manifest scrub then refuses to report as
// confirmed. Either way, Stat never overstates what is safe to resume
// from.
func TestAtomicPartialsSurviveCrash(t *testing.T) {
	for _, torn := range []bool{false, true} {
		rg := newRig(t)
		rg.d.TornWrites = torn
		rg.d.DiskBps = 1e6 // slow disk so the crash lands mid-write
		size := float64(ManifestChunk * 2)
		crashed := false
		rg.r.Go("crasher", func(p *simproc.Proc) {
			// Well inside the first chunk's multi-second disk write.
			p.Sleep(5)
			rg.d.Crash()
			crashed = true
		})
		rg.run(t, func(p *simproc.Proc, cl *Client) {
			_, err := cl.PushSizedResumable(p, "t.bin", size, 0, 0, "digest")
			if err == nil {
				t.Errorf("torn=%v: push survived a daemon crash", torn)
			}
		})
		if !crashed {
			t.Fatalf("torn=%v: crash never fired", torn)
		}
		raw := 0.0
		if pt, ok := rg.d.partials["t.bin"]; ok {
			raw = pt.received
		}
		if torn {
			if raw <= 0 {
				t.Fatalf("torn=true: expected a torn tail on disk, partial=%v", raw)
			}
		} else if raw != 0 {
			t.Fatalf("torn=false: atomic write path left %v uncommitted bytes", raw)
		}
		// The scrubbed offset — what a resuming client sees — must be a
		// chunk boundary covering only healthy bytes: zero here.
		if got := rg.d.PartialOffset("t.bin"); got != 0 {
			t.Fatalf("torn=%v: scrubbed offset %v, want 0", torn, got)
		}
	}
}
