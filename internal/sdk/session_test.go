package sdk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"detournet/internal/cloudsim"
	"detournet/internal/simproc"
)

func TestStreamingSessionsAllProviders(t *testing.T) {
	for _, style := range []cloudsim.Style{cloudsim.GoogleDrive, cloudsim.Dropbox, cloudsim.OneDrive} {
		t.Run(style.String(), func(t *testing.T) {
			w := newWorld(t)
			c := w.client(t, style, Options{})
			w.run(t, func(p *simproc.Proc) {
				sess, err := c.BeginUpload(p, "stream.bin", 10e6, "digest", "")
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				var fi FileInfo
				for sent := 0.0; sent < 10e6; {
					n := 3e6
					last := false
					if sent+n >= 10e6 {
						n = 10e6 - sent
						last = true
					}
					fi, err = sess.WriteChunk(p, n, last)
					if err != nil {
						t.Errorf("chunk at %v: %v", sent, err)
						return
					}
					sent += n
				}
				if fi.Size != 10e6 {
					t.Errorf("final meta = %+v", fi)
				}
				if sess.Written() != 10e6 {
					t.Errorf("Written = %v", sess.Written())
				}
				if o, ok := w.svc[style].Store.Get("stream.bin"); !ok || o.Size != 10e6 {
					t.Errorf("stored object: %+v %v", o, ok)
				}
				c.Close()
			})
		})
	}
}

func TestSessionRejectsBadSizes(t *testing.T) {
	w := newWorld(t)
	g := w.client(t, cloudsim.GoogleDrive, Options{})
	o := w.client(t, cloudsim.OneDrive, Options{})
	w.run(t, func(p *simproc.Proc) {
		if _, err := g.BeginUpload(p, "x", 0, "", ""); err == nil {
			t.Error("drive zero-size session accepted")
		}
		if _, err := o.BeginUpload(p, "x", -1, "", ""); err == nil {
			t.Error("onedrive negative session accepted")
		}
		sess, err := g.BeginUpload(p, "x", 100, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.WriteChunk(p, 0, false); err == nil {
			t.Error("empty chunk accepted")
		}
		g.Close()
		o.Close()
	})
}

func TestSessionMatchesWholeUploadSemantics(t *testing.T) {
	// Uploading via session in provider-default chunks must store the
	// same object Upload() stores.
	for _, style := range []cloudsim.Style{cloudsim.GoogleDrive, cloudsim.Dropbox, cloudsim.OneDrive} {
		t.Run(style.String(), func(t *testing.T) {
			w := newWorld(t)
			c := w.client(t, style, Options{})
			size := 25e6
			chunk := style.DefaultChunkBytes()
			w.run(t, func(p *simproc.Proc) {
				sess, err := c.BeginUpload(p, "f.bin", size, "", "")
				if err != nil {
					t.Error(err)
					return
				}
				for sent := 0.0; sent < size; {
					n := chunk
					last := false
					if sent+n >= size {
						n = size - sent
						last = true
					}
					if _, err := sess.WriteChunk(p, n, last); err != nil {
						t.Errorf("chunk: %v", err)
						return
					}
					sent += n
				}
				c.Close()
			})
			if o, ok := w.svc[style].Store.Get("f.bin"); !ok || o.Size != size {
				t.Fatalf("stored: %+v %v", o, ok)
			}
		})
	}
}

func TestDriveResumeAfterInterruption(t *testing.T) {
	w := newWorld(t)
	g := w.client(t, cloudsim.GoogleDrive, Options{}).(*GoogleDrive)
	w.run(t, func(p *simproc.Proc) {
		size := 20e6
		sess, err := g.BeginUpload(p, "resume.bin", size, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		// Upload half, then "crash" (abandon the session object).
		if _, err := sess.WriteChunk(p, 10e6, false); err != nil {
			t.Error(err)
			return
		}
		// Reattach: the status query reports the confirmed offset.
		resumed, err := g.Resume(p, sess.Token(), "")
		if err != nil {
			t.Error(err)
			return
		}
		if resumed.Written() != 10e6 {
			t.Errorf("resumed offset = %v, want 10e6", resumed.Written())
			return
		}
		fi, err := resumed.WriteChunk(p, 10e6, true)
		if err != nil {
			t.Error(err)
			return
		}
		if fi.Size != size {
			t.Errorf("final size = %v", fi.Size)
		}
		g.Close()
	})
	if o, ok := w.svc[cloudsim.GoogleDrive].Store.Get("resume.bin"); !ok || o.Size != 20e6 {
		t.Fatalf("resumed object: %+v %v", o, ok)
	}
}

func TestDriveResumeFreshSession(t *testing.T) {
	// Resuming a session with zero confirmed bytes starts at offset 0.
	w := newWorld(t)
	g := w.client(t, cloudsim.GoogleDrive, Options{}).(*GoogleDrive)
	w.run(t, func(p *simproc.Proc) {
		sess, err := g.BeginUpload(p, "f.bin", 5e6, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		resumed, err := g.Resume(p, sess.Token(), "")
		if err != nil {
			t.Error(err)
			return
		}
		if resumed.Written() != 0 {
			t.Errorf("fresh resume offset = %v", resumed.Written())
		}
		if _, err := resumed.WriteChunk(p, 5e6, true); err != nil {
			t.Error(err)
		}
		g.Close()
	})
}

func TestDriveResumeValidation(t *testing.T) {
	w := newWorld(t)
	g := w.client(t, cloudsim.GoogleDrive, Options{}).(*GoogleDrive)
	w.run(t, func(p *simproc.Proc) {
		if _, err := g.Resume(p, SessionToken{Size: 100}, ""); err == nil {
			t.Error("empty location accepted")
		}
		if _, err := g.Resume(p, SessionToken{Ref: "/upload/drive/v3/sessions/sess-999", Size: 100}, ""); err == nil {
			t.Error("unknown session resumed")
		}
		g.Close()
	})
}

// contentRange writes what "bytes %.0f-%.0f/%.0f" writes, rounding
// halves and fractional sizes included.
func TestContentRangeMatchesFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, 1, 0.5, 1.5, 2.5, -0.5, 4194303, 1e8, 99999999.5, math.MaxUint32}
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Floor(rng.Float64()*1e9), rng.Float64()*1e7)
	}
	for i, lo := range vals {
		hi, total := vals[(i+1)%len(vals)], vals[(i+2)%len(vals)]
		if got, want := contentRange(lo, hi, total), fmt.Sprintf("bytes %.0f-%.0f/%.0f", lo, hi, total); got != want {
			t.Fatalf("contentRange(%v, %v, %v) = %q, want %q", lo, hi, total, got, want)
		}
	}
}
