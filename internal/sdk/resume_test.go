package sdk

import (
	"strings"
	"testing"

	"detournet/internal/cloudsim"
	"detournet/internal/simproc"
)

// TestDriveResumeAfterInjectedFailure interrupts a WriteChunk with an
// injected server error: the local session's offset runs ahead of the
// server's, and Resume must recover the true offset from the
// status query.
func TestDriveResumeAfterInjectedFailure(t *testing.T) {
	w := newWorld(t)
	svc := w.svc[cloudsim.GoogleDrive]
	g := w.client(t, cloudsim.GoogleDrive, Options{}).(*GoogleDrive)
	w.run(t, func(p *simproc.Proc) {
		size := 30e6
		sess, err := g.BeginUpload(p, "crash.bin", size, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.WriteChunk(p, 10e6, false); err != nil {
			t.Error(err)
			return
		}
		svc.FailNext = 1 // the next chunk dies server-side
		if _, err := sess.WriteChunk(p, 10e6, false); err == nil {
			t.Error("chunk through injected fault succeeded")
			return
		}
		// The failed chunk bumped the local offset to 20e6, but the
		// server only confirmed 10e6.
		tok := sess.Token()
		if tok.Offset != 20e6 {
			t.Errorf("stale token offset = %v, want 20e6", tok.Offset)
		}
		resumed, err := g.Resume(p, tok, "")
		if err != nil {
			t.Error(err)
			return
		}
		if resumed.Written() != 10e6 {
			t.Errorf("resumed offset = %v, want 10e6", resumed.Written())
			return
		}
		if _, err := resumed.WriteChunk(p, 20e6, true); err != nil {
			t.Error(err)
			return
		}
		g.Close()
	})
	if o, ok := w.svc[cloudsim.GoogleDrive].Store.Get("crash.bin"); !ok || o.Size != 30e6 {
		t.Fatalf("resumed object: %+v %v", o, ok)
	}
}

// TestDropboxResumeRoundTrip abandons a session mid-upload and
// reattaches by session id + offset.
func TestDropboxResumeRoundTrip(t *testing.T) {
	w := newWorld(t)
	d := w.client(t, cloudsim.Dropbox, Options{}).(*Dropbox)
	w.run(t, func(p *simproc.Proc) {
		sess, err := d.BeginUpload(p, "dbx.bin", 12e6, "digest", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.WriteChunk(p, 8e6, false); err != nil {
			t.Error(err)
			return
		}
		tok := sess.Token()
		if tok.Ref == "" || tok.Offset != 8e6 {
			t.Errorf("token = %+v", tok)
		}

		resumed, err := d.Resume(p, tok, "")
		if err != nil {
			t.Error(err)
			return
		}
		if resumed.Written() != 8e6 {
			t.Errorf("resumed offset = %v, want 8e6", resumed.Written())
			return
		}
		fi, err := resumed.WriteChunk(p, 4e6, true)
		if err != nil {
			t.Error(err)
			return
		}
		if fi.Size != 12e6 {
			t.Errorf("final size = %v", fi.Size)
		}
		d.Close()
	})
	if o, ok := w.svc[cloudsim.Dropbox].Store.Get("dbx.bin"); !ok || o.Size != 12e6 {
		t.Fatalf("stored: %+v %v", o, ok)
	}
}

// TestDropboxResumeOffsetMismatch resumes with a stale offset; the 409
// incorrect_offset response carries the server's correct offset and the
// client self-corrects.
func TestDropboxResumeOffsetMismatch(t *testing.T) {
	w := newWorld(t)
	d := w.client(t, cloudsim.Dropbox, Options{}).(*Dropbox)
	w.run(t, func(p *simproc.Proc) {
		sess, err := d.BeginUpload(p, "skew.bin", 10e6, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.WriteChunk(p, 6e6, false); err != nil {
			t.Error(err)
			return
		}
		tok := sess.Token()
		// Believed offset is wrong in both directions; the server wins.
		for _, stale := range []float64{0, 9e6} {
			tok.Offset = stale
			resumed, err := d.Resume(p, tok, "")
			if err != nil {
				t.Errorf("resume at %v: %v", stale, err)
				return
			}
			if resumed.Written() != 6e6 {
				t.Errorf("resume at %v corrected to %v, want 6e6", stale, resumed.Written())
			}
		}
		d.Close()
	})
}

// TestResumeExpiredSession ages sessions past the service TTL; both
// providers' resume paths must surface the 404.
func TestResumeExpiredSession(t *testing.T) {
	w := newWorld(t)
	g := w.client(t, cloudsim.GoogleDrive, Options{}).(*GoogleDrive)
	d := w.client(t, cloudsim.Dropbox, Options{}).(*Dropbox)
	w.svc[cloudsim.GoogleDrive].SessionTTL = 600
	w.svc[cloudsim.Dropbox].SessionTTL = 600
	w.run(t, func(p *simproc.Proc) {
		gs, err := g.BeginUpload(p, "old.bin", 10e6, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := gs.WriteChunk(p, 5e6, false); err != nil {
			t.Error(err)
			return
		}
		ds, err := d.BeginUpload(p, "old2.bin", 10e6, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ds.WriteChunk(p, 5e6, false); err != nil {
			t.Error(err)
			return
		}

		p.Sleep(3600) // outlive the TTL

		if _, err := g.Resume(p, gs.Token(), ""); err == nil {
			t.Error("drive resume of expired session succeeded")
		} else if !strings.Contains(err.Error(), "404") {
			t.Errorf("drive expired resume: %v", err)
		}
		if _, err := d.Resume(p, ds.Token(), ""); err == nil {
			t.Error("dropbox resume of expired session succeeded")
		} else if !strings.Contains(err.Error(), "404") {
			t.Errorf("dropbox expired resume: %v", err)
		}
		g.Close()
		d.Close()
	})
}
