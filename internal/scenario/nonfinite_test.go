package scenario

import (
	"fmt"
	"math"
	"testing"
	"time"

	"detournet/internal/rsyncx"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
)

// TestNonFiniteSizeRefused: every sized transfer entry point refuses a
// NaN or infinite size or offset with an error before it sends
// anything, so the virtual clock does not move. A chunk loop fed such a
// size never reaches it, so each case runs to a virtual deadline under
// a wall timeout: a hang fails the case instead of the whole run.
func TestNonFiniteSizeRefused(t *testing.T) {
	push := func(w *World) *rsyncx.Client { return rsyncx.NewClient(w.Net, UBC, UAlberta) }
	entries := []struct {
		name string
		send func(w *World, p *simproc.Proc, x float64) error
	}{
		{"Dropbox.Upload", func(w *World, p *simproc.Proc, x float64) error {
			c := w.NewSDKClient(UBC, Dropbox)
			defer c.Close()
			_, err := c.Upload(p, "f.bin", x, "")
			return err
		}},
		{"PushSized", func(w *World, p *simproc.Proc, x float64) error {
			return push(w).PushSized(p, "f.bin", x, "")
		}},
		{"PushSizedResumable.size", func(w *World, p *simproc.Proc, x float64) error {
			_, err := push(w).PushSizedResumable(p, "f.bin", x, 0, 0, "")
			return err
		}},
		{"PushSizedResumable.offset", func(w *World, p *simproc.Proc, x float64) error {
			_, err := push(w).PushSizedResumable(p, "f.bin", 10e6, x, 0, "")
			return err
		}},
	}
	for _, e := range entries {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s/%v", e.name, x), func(t *testing.T) {
				w := Build(2015)
				var err error
				var took simclock.Time
				done := false
				w.Runner.Go("send", func(p *simproc.Proc) {
					t0 := p.Now()
					err = e.send(w, p, x)
					took, done = p.Now()-t0, true
				})
				ran := make(chan any, 1)
				go func() {
					defer func() { ran <- recover() }()
					w.Runner.RunUntil(3600)
				}()
				select {
				case r := <-ran:
					if r != nil {
						t.Fatalf("%v panicked: %v", x, r)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("%v: an hour of virtual time took over 30 s of wall time", x)
				}
				defer w.Close()
				switch {
				case !done:
					t.Fatalf("%v: still sending an hour of virtual time later", x)
				case err == nil:
					t.Fatalf("%v accepted", x)
				case took != 0:
					t.Fatalf("%v refused only after %v s on the wire: %v", x, took, err)
				}
			})
		}
	}
}
