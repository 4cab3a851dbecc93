package core

import (
	"errors"
	"testing"

	"detournet/internal/rsyncx"
	"detournet/internal/simproc"
)

func TestVerifyDigest(t *testing.T) {
	ck := &Checkpoint{HasSession: true, Hop2High: 5e6}
	// Either side empty, or a match: no-op.
	for _, pair := range [][2]string{{"", "abc"}, {"abc", ""}, {"abc", "abc"}} {
		if err := ck.verifyDigest(pair[0], pair[1]); err != nil {
			t.Fatalf("verifyDigest(%q, %q) = %v", pair[0], pair[1], err)
		}
		if !ck.HasSession {
			t.Fatalf("verifyDigest(%q, %q) discarded the session", pair[0], pair[1])
		}
	}
	// Mismatch: typed error, session gone, progress charged as rewritten.
	err := ck.verifyDigest("good", "bad")
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("mismatch error = %v, want ErrIntegrity", err)
	}
	if ck.HasSession || ck.Hop2High != 0 {
		t.Fatalf("session survived the mismatch: %+v", ck)
	}
	if ck.BytesRewritten != 5e6 {
		t.Fatalf("rewritten = %.0f, want the discarded session's 5e6", ck.BytesRewritten)
	}
}

// TestCorruptedResumeDetectedAndRetried is the integrity satellite's
// end-to-end proof: a checkpoint resumes a provider session that was
// begun against corrupted bytes (its committed digest will not match
// the source), the completed upload fails the digest gate with
// ErrIntegrity, the poisoned session is discarded — and the very next
// attempt, resuming nothing, uploads clean.
func TestCorruptedResumeDetectedAndRetried(t *testing.T) {
	tb := newTestbed(t)
	client := tb.directClient()
	good := rsyncx.Checksum([]byte("the file the user actually has"))
	bad := rsyncx.Checksum([]byte("what a corrupted staging area held"))
	const size = 20e6

	tb.run(t, func(p *simproc.Proc) {
		// A prior attempt began its session from corrupted staging: the
		// provider will commit — and echo — the bad digest.
		sess, err := client.BeginUpload(p, "f.bin", size, bad, "")
		if err != nil {
			t.Errorf("begin poisoned session: %v", err)
			return
		}
		if _, err := sess.WriteChunk(p, 8e6, false); err != nil {
			t.Errorf("poisoned chunk: %v", err)
			return
		}
		ck := &Checkpoint{}
		ck.Session, ck.HasSession = sess.Token(), true
		ck.Hop2High = sess.Written()

		// The retry resumes the poisoned session, finishes the upload,
		// and must detect the mismatch at completion.
		_, err = DirectUploadResumable(p, client, "f.bin", size, good, ck)
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("resumed upload err = %v, want ErrIntegrity", err)
			return
		}
		if ck.HasSession {
			t.Error("poisoned session not discarded")
		}
		if ck.BytesRewritten < size {
			t.Errorf("rewritten = %.0f, want >= %.0f (the whole poisoned upload)", ck.BytesRewritten, float64(size))
		}

		// The next attempt starts a fresh session and commits the real
		// digest.
		rep, err := DirectUploadResumable(p, client, "f.bin", size, good, ck)
		if err != nil {
			t.Errorf("clean retry failed: %v", err)
			return
		}
		if rep.Info.MD5 != good {
			t.Errorf("provider digest after retry = %q, want %q", rep.Info.MD5, good)
		}
		if o, ok := tb.svc.Store.Get("f.bin"); !ok || o.MD5 != good {
			t.Errorf("stored object digest = %+v, want %q", o, good)
		}
	})
}

// TestDetourResumableVerifiesDigest covers the detour path's gate: the
// relayed session commits whatever digest the staging held, and the
// client-side checkpoint must reject it when it isn't the source's.
func TestDetourResumableVerifiesDigest(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	good := rsyncx.Checksum([]byte("source bytes"))
	tb.run(t, func(p *simproc.Proc) {
		// Happy path: digest threads client → staging → provider.
		ck := &Checkpoint{}
		rep, err := dc.UploadResumable(p, "GoogleDrive", "ok.bin", 10e6, good, ck)
		if err != nil {
			t.Errorf("detour resumable: %v", err)
			return
		}
		if rep.Info.MD5 != good {
			t.Errorf("detour committed digest %q, want %q", rep.Info.MD5, good)
		}
		if ck.HasSession {
			t.Error("committed upload left a live session in the checkpoint")
		}
	})
}
