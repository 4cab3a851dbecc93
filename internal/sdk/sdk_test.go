package sdk

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"detournet/internal/cloudsim"
	"detournet/internal/fluid"
	"detournet/internal/jsonwire"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

type world struct {
	eng *simclock.Engine
	r   *simproc.Runner
	tn  *transport.Net
	svc map[cloudsim.Style]*cloudsim.Service
}

func newWorld(t *testing.T) *world {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	hosts := []string{"client", "gdrive-dc", "dropbox-dc", "onedrive-dc"}
	for _, h := range hosts {
		g.MustAddNode(&topology.Node{Name: h, Kind: topology.Host, RespondsICMP: true})
	}
	for _, h := range hosts[1:] {
		g.MustConnect("client", h, topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.025})
	}
	tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
	w := &world{eng: eng, r: r, tn: tn, svc: map[cloudsim.Style]*cloudsim.Service{}}
	for style, host := range map[cloudsim.Style]string{
		cloudsim.GoogleDrive: "gdrive-dc",
		cloudsim.Dropbox:     "dropbox-dc",
		cloudsim.OneDrive:    "onedrive-dc",
	} {
		svc := cloudsim.NewService(eng, tn, style.String(), host, style)
		svc.Start(tn)
		w.svc[style] = svc
	}
	return w
}

// run executes fn in a proc and drives the sim to completion; server
// accept loops stay parked, so drive with RunUntil on a far horizon.
func (w *world) run(t *testing.T, fn func(p *simproc.Proc)) {
	t.Helper()
	done := false
	w.r.Go("test", func(p *simproc.Proc) {
		fn(p)
		done = true
	})
	w.r.RunUntil(simclock.Time(1e7))
	if !done {
		t.Fatal("test proc did not finish")
	}
}

func (w *world) client(t *testing.T, style cloudsim.Style, opts Options) Client {
	t.Helper()
	svc := w.svc[style]
	creds := Register(svc, "bench-app", "secret")
	switch style {
	case cloudsim.GoogleDrive:
		return NewGoogleDrive(w.eng, w.tn, "client", svc.Host, creds, opts)
	case cloudsim.Dropbox:
		return NewDropbox(w.eng, w.tn, "client", svc.Host, creds, opts)
	default:
		return NewOneDrive(w.eng, w.tn, "client", svc.Host, creds, opts)
	}
}

func TestUploadDownloadDeleteAllProviders(t *testing.T) {
	for _, style := range []cloudsim.Style{cloudsim.GoogleDrive, cloudsim.Dropbox, cloudsim.OneDrive} {
		t.Run(style.String(), func(t *testing.T) {
			w := newWorld(t)
			c := w.client(t, style, Options{})
			w.run(t, func(p *simproc.Proc) {
				fi, err := c.Upload(p, "test.bin", 10e6, "digest123")
				if err != nil {
					t.Errorf("upload: %v", err)
					return
				}
				if fi.Size != 10e6 || fi.Name != "test.bin" {
					t.Errorf("meta = %+v", fi)
				}
				store := w.svc[style].Store
				if o, ok := store.Get("test.bin"); !ok || o.Size != 10e6 {
					t.Errorf("store missing object: %+v %v", o, ok)
				}
				dl, err := c.Download(p, "test.bin")
				if err != nil {
					t.Errorf("download: %v", err)
					return
				}
				if dl.Size != 10e6 {
					t.Errorf("downloaded size = %v", dl.Size)
				}
				if err := c.Delete(p, "test.bin"); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
				if len(store.List()) != 0 {
					t.Errorf("store not empty after delete")
				}
				c.Close()
			})
		})
	}
}

func TestDownloadMissingFileFails(t *testing.T) {
	for _, style := range []cloudsim.Style{cloudsim.GoogleDrive, cloudsim.Dropbox, cloudsim.OneDrive} {
		t.Run(style.String(), func(t *testing.T) {
			w := newWorld(t)
			c := w.client(t, style, Options{})
			w.run(t, func(p *simproc.Proc) {
				if _, err := c.Download(p, "ghost.bin"); err == nil {
					t.Error("download of missing file succeeded")
				}
				if err := c.Delete(p, "ghost.bin"); err == nil {
					t.Error("delete of missing file succeeded")
				}
				c.Close()
			})
		})
	}
}

func TestChunkCountsPerProvider(t *testing.T) {
	// 20 MB: Drive (8 MiB) = 1 init + 3 PUTs; Dropbox (4 MiB) = start +
	// 3 append + finish; OneDrive (10 MiB) = create + 2 PUTs. Plus one
	// token fetch each.
	cases := []struct {
		style    cloudsim.Style
		wantReqs int
	}{
		{cloudsim.GoogleDrive, 1 + 3},
		{cloudsim.Dropbox, 1 + 3 + 1},
		{cloudsim.OneDrive, 1 + 2},
	}
	for _, tc := range cases {
		t.Run(tc.style.String(), func(t *testing.T) {
			w := newWorld(t)
			c := w.client(t, tc.style, Options{})
			w.run(t, func(p *simproc.Proc) {
				if _, err := c.Upload(p, "f.bin", 20<<20, ""); err != nil {
					t.Errorf("upload: %v", err)
				}
				c.Close()
			})
			if got := w.svc[tc.style].Requests; got != tc.wantReqs {
				t.Errorf("requests = %d, want %d", got, tc.wantReqs)
			}
		})
	}
}

func TestSmallFileSingleShotDropbox(t *testing.T) {
	w := newWorld(t)
	c := w.client(t, cloudsim.Dropbox, Options{})
	w.run(t, func(p *simproc.Proc) {
		if _, err := c.Upload(p, "small.bin", 1e6, ""); err != nil {
			t.Errorf("upload: %v", err)
		}
		c.Close()
	})
	if got := w.svc[cloudsim.Dropbox].Requests; got != 1 {
		t.Errorf("small upload used %d requests, want 1", got)
	}
}

func TestCustomChunkSize(t *testing.T) {
	w := newWorld(t)
	c := w.client(t, cloudsim.GoogleDrive, Options{ChunkBytes: 1 << 20})
	w.run(t, func(p *simproc.Proc) {
		if _, err := c.Upload(p, "f.bin", 4<<20, ""); err != nil {
			t.Errorf("upload: %v", err)
		}
		c.Close()
	})
	// 1 initiate + 4 chunk PUTs
	if got := w.svc[cloudsim.GoogleDrive].Requests; got != 5 {
		t.Errorf("requests = %d, want 5", got)
	}
}

func TestOverwriteReplacesObject(t *testing.T) {
	w := newWorld(t)
	c := w.client(t, cloudsim.Dropbox, Options{})
	w.run(t, func(p *simproc.Proc) {
		if _, err := c.Upload(p, "f.bin", 1e6, ""); err != nil {
			t.Error(err)
		}
		if _, err := c.Upload(p, "f.bin", 2e6, ""); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	store := w.svc[cloudsim.Dropbox].Store
	o, ok := store.Get("f.bin")
	if !ok || o.Size != 2e6 || len(store.List()) != 1 {
		t.Fatalf("after overwrite: %+v len=%d", o, len(store.List()))
	}
}

func TestUploadTimeScalesWithSizeAndProvider(t *testing.T) {
	// Same path, same bandwidth: more chunks => more request round trips
	// => Dropbox (4 MiB chunks) slower than Drive (8 MiB) for the same
	// bytes on a long-RTT path.
	w := newWorld(t)
	gd := w.client(t, cloudsim.GoogleDrive, Options{})
	dbx := w.client(t, cloudsim.Dropbox, Options{})
	var tGD, tDBX float64
	w.run(t, func(p *simproc.Proc) {
		t0 := p.Now()
		if _, err := gd.Upload(p, "a.bin", 40<<20, ""); err != nil {
			t.Error(err)
		}
		tGD = float64(p.Now() - t0)
		t0 = p.Now()
		if _, err := dbx.Upload(p, "b.bin", 40<<20, ""); err != nil {
			t.Error(err)
		}
		tDBX = float64(p.Now() - t0)
		gd.Close()
		dbx.Close()
	})
	if tGD <= 0 || tDBX <= 0 {
		t.Fatalf("times: gd=%v dbx=%v", tGD, tDBX)
	}
	if tDBX <= tGD {
		t.Fatalf("chunkier Dropbox (%v) should be slower than Drive (%v) here", tDBX, tGD)
	}
	// Both are within 2x of the bandwidth bound (40MiB at 8MB/s ≈ 5.2s).
	bound := 40 * float64(1<<20) / 8e6
	if tGD < bound || tGD > 2.5*bound {
		t.Fatalf("Drive upload time %v implausible (bound %v)", tGD, bound)
	}
}

func TestTokenReusedAcrossCalls(t *testing.T) {
	w := newWorld(t)
	c := w.client(t, cloudsim.GoogleDrive, Options{}).(*GoogleDrive)
	w.run(t, func(p *simproc.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := c.Upload(p, "f.bin", 1e6, ""); err != nil {
				t.Error(err)
			}
		}
		c.Close()
	})
	if c.ts.Fetches != 1 {
		t.Fatalf("token fetches = %d, want 1", c.ts.Fetches)
	}
}

func TestQuotaEnforced(t *testing.T) {
	w := newWorld(t)
	w.svc[cloudsim.Dropbox].Store.Quota = 5e6
	c := w.client(t, cloudsim.Dropbox, Options{})
	w.run(t, func(p *simproc.Proc) {
		if _, err := c.Upload(p, "ok.bin", 4e6, ""); err != nil {
			t.Errorf("within quota: %v", err)
		}
		if _, err := c.Upload(p, "big.bin", 4e6, ""); err == nil {
			t.Error("over-quota upload succeeded")
		} else if !strings.Contains(err.Error(), "quota") && !strings.Contains(err.Error(), "413") {
			t.Errorf("unexpected error: %v", err)
		}
		c.Close()
	})
}

func TestZeroByteUpload(t *testing.T) {
	for _, style := range []cloudsim.Style{cloudsim.GoogleDrive, cloudsim.Dropbox, cloudsim.OneDrive} {
		t.Run(style.String(), func(t *testing.T) {
			w := newWorld(t)
			c := w.client(t, style, Options{})
			w.run(t, func(p *simproc.Proc) {
				if _, err := c.Upload(p, "empty.bin", 0, ""); err != nil {
					t.Errorf("zero-byte upload: %v", err)
				}
				c.Close()
			})
		})
	}
}

func TestUploadExactChunkMultiple(t *testing.T) {
	// Exactly 2 chunks, no remainder: must not send an empty extra chunk.
	w := newWorld(t)
	c := w.client(t, cloudsim.GoogleDrive, Options{ChunkBytes: 1 << 20})
	w.run(t, func(p *simproc.Proc) {
		fi, err := c.Upload(p, "f.bin", 2<<20, "")
		if err != nil {
			t.Errorf("upload: %v", err)
		}
		if fi.Size != float64(2<<20) {
			t.Errorf("size = %v", fi.Size)
		}
		c.Close()
	})
	if got := w.svc[cloudsim.GoogleDrive].Requests; got != 3 { // init + 2 PUTs
		t.Errorf("requests = %d, want 3", got)
	}
}

func TestProviderIdentity(t *testing.T) {
	w := newWorld(t)
	if n := w.client(t, cloudsim.GoogleDrive, Options{}).ProviderName(); n != "GoogleDrive" {
		t.Fatal(n)
	}
	if n := w.client(t, cloudsim.Dropbox, Options{}).ProviderName(); n != "Dropbox" {
		t.Fatal(n)
	}
	c := w.client(t, cloudsim.OneDrive, Options{})
	if c.ProviderName() != "OneDrive" || c.Host() != "onedrive-dc" || c.From() != "client" {
		t.Fatalf("identity: %s %s %s", c.ProviderName(), c.Host(), c.From())
	}
}

func TestUploadTimesAreFinite(t *testing.T) {
	w := newWorld(t)
	c := w.client(t, cloudsim.OneDrive, Options{})
	w.run(t, func(p *simproc.Proc) {
		t0 := p.Now()
		if _, err := c.Upload(p, "f.bin", 100<<20, ""); err != nil {
			t.Error(err)
		}
		dur := float64(p.Now() - t0)
		if math.IsInf(dur, 0) || dur <= 0 {
			t.Errorf("dur = %v", dur)
		}
		// 100 MiB at 8 MB/s ≈ 13.1s; allow ramp + 11 fragments of overhead.
		if dur < 13 || dur > 20 {
			t.Errorf("100MB upload took %v, want ~13-20s", dur)
		}
		c.Close()
	})
}

// throttle makes svc answer each protected request 429 with
// probability rate, through the seeded fault knobs internal/faults
// drives.
func throttle(svc *cloudsim.Service, rate float64) {
	svc.ThrottleRate = rate
	svc.FaultRand = rand.New(rand.NewSource(1))
}

func TestRateLimitedUploadRetriesAndSucceeds(t *testing.T) {
	w := newWorld(t)
	svc := w.svc[cloudsim.GoogleDrive]
	throttle(svc, 0.5) // half the requests answer 429: a chunked upload must back off
	c := w.client(t, cloudsim.GoogleDrive, Options{ChunkBytes: 2 << 20})
	var dur float64
	w.run(t, func(p *simproc.Proc) {
		t0 := p.Now()
		fi, err := c.Upload(p, "f.bin", 10<<20, "") // init + 5 chunk PUTs
		if err != nil {
			t.Errorf("throttled upload failed: %v", err)
			return
		}
		if fi.Size != float64(10<<20) {
			t.Errorf("size = %v", fi.Size)
		}
		dur = float64(p.Now() - t0)
		c.Close()
	})
	if svc.InjectedFaults == 0 {
		t.Fatal("throttle never triggered")
	}
	if o, ok := svc.Store.Get("f.bin"); !ok || o.Size != float64(10<<20) {
		t.Fatalf("object not stored: %+v %v", o, ok)
	}
	if dur <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestRateLimitExhaustionSurfacesError(t *testing.T) {
	w := newWorld(t)
	svc := w.svc[cloudsim.Dropbox]
	c := w.client(t, cloudsim.Dropbox, Options{})
	w.run(t, func(p *simproc.Proc) {
		if _, err := c.Upload(p, "a.bin", 1e6, ""); err != nil {
			t.Errorf("first upload: %v", err)
		}
		throttle(svc, 1) // every request from here on answers 429
		// The first request retries maxThrottleRetries times, then errors.
		if _, err := c.Upload(p, "b.bin", 1e6, ""); err == nil {
			t.Error("exhausted rate limit did not surface an error")
		} else if !strings.Contains(err.Error(), "429") {
			t.Errorf("unexpected error: %v", err)
		}
		c.Close()
	})
	if svc.InjectedFaults != maxThrottleRetries+1 {
		t.Errorf("injected 429s = %d, want %d", svc.InjectedFaults, maxThrottleRetries+1)
	}
}

func TestThrottlingSlowsButPreservesSemantics(t *testing.T) {
	// The same upload with and without throttling stores identical
	// objects; only the time differs.
	base := func(rate float64) (float64, float64) {
		w := newWorld(t)
		svc := w.svc[cloudsim.OneDrive]
		if rate > 0 {
			throttle(svc, rate)
		}
		c := w.client(t, cloudsim.OneDrive, Options{})
		var dur float64
		w.run(t, func(p *simproc.Proc) {
			t0 := p.Now()
			if _, err := c.Upload(p, "f.bin", 30<<20, ""); err != nil {
				t.Errorf("upload: %v", err)
			}
			dur = float64(p.Now() - t0)
			c.Close()
		})
		if rate > 0 && svc.InjectedFaults == 0 {
			t.Errorf("throttle at %v never triggered", rate)
		}
		o, _ := svc.Store.Get("f.bin")
		return dur, o.Size
	}
	freeDur, freeSize := base(0)
	limDur, limSize := base(0.5)
	if freeSize != limSize {
		t.Fatalf("sizes differ: %v vs %v", freeSize, limSize)
	}
	if limDur <= freeDur {
		t.Fatalf("throttled upload (%v) not slower than free (%v)", limDur, freeDur)
	}
}

// The Dropbox-API-Args the client writes are exactly the bytes of the
// maps with the same keys: the header's length is wire size.
func TestDropboxArgsEncodeLikeMaps(t *testing.T) {
	for _, cur := range []jsonwire.DropboxCursor{{SessionID: "s<1>&", Offset: 4194304}, {SessionID: "sess-0", Offset: 1e21}} {
		for _, c := range []struct {
			typed []byte
			m     any
		}{
			{jsonwire.DropboxPath{Path: "/a b/ü.bin"}.AppendJSON(nil), map[string]string{"path": "/a b/ü.bin"}},
			{[]byte("{}"), map[string]any{}},
			{jsonwire.DropboxAppend{Cursor: cur}.AppendJSON(nil), map[string]any{"cursor": cur}},
			{jsonwire.DropboxFinish{Commit: jsonwire.DropboxPath{Path: "f"}, Cursor: cur}.AppendJSON(nil),
				map[string]any{"cursor": cur, "commit": map[string]string{"path": "f"}}},
		} {
			b, err := json.Marshal(c.m)
			if err != nil || string(c.typed) != string(b) {
				t.Errorf("typed %s, map %s (%v)", c.typed, b, err)
			}
		}
	}
}

// A warm Dropbox append round trip — the client encodes the cursor
// argument, the server decodes it and answers, the client reads the
// answer — allocates a pinned number of times: the request and its
// header fields, the header's string, the server's handler context, the
// decoded cursor and the response. The pin is the measured count, 19
// when the JSON went through reflection and every send allocated a
// fluid flow; the race detector's allocations would move it.
func TestDropboxAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w := newWorld(t)
	c := w.client(t, cloudsim.Dropbox, Options{})
	kick := simproc.NewQueue[bool](w.r)
	w.r.Go("uploader", func(p *simproc.Proc) {
		sess, err := c.BeginUpload(p, "alloc.bin", 0, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		for kick.Pop(p) {
			if _, err := sess.WriteChunk(p, 1000, false); err != nil {
				t.Error(err)
				return
			}
		}
	})
	round := func() {
		kick.Push(true)
		w.r.Drive()
	}
	for i := 0; i < 10; i++ { // warm up: connection, ramp, free lists
		round()
	}
	const pinned = 6
	if got := testing.AllocsPerRun(200, round); got != pinned {
		t.Fatalf("%v allocations per append round trip, pinned at %d", got, pinned)
	}
	kick.Push(false)
	w.r.Drive()
}

// Drive's initiate body carries the size, and JSON has no NaN or ±Inf:
// BeginUpload refuses such a size with an error before anything is
// encoded.
func TestDriveSessionRefusesNonFiniteSize(t *testing.T) {
	w := newWorld(t)
	c := w.client(t, cloudsim.GoogleDrive, Options{})
	w.run(t, func(p *simproc.Proc) {
		for _, size := range []float64{math.NaN(), math.Inf(1), -1, 0} {
			if _, err := c.BeginUpload(p, "bad.bin", size, "", ""); err == nil {
				t.Errorf("size %v: session opened", size)
			}
		}
	})
}

// A Dropbox session's offset rides in every Dropbox-API-Arg: a chunk or
// a resume offset that is NaN, infinite or negative is refused with an
// error before anything is encoded, and leaves the session's offset as
// it was.
func TestDropboxSessionRefusesNonFiniteOffset(t *testing.T) {
	w := newWorld(t)
	d := w.client(t, cloudsim.Dropbox, Options{}).(*Dropbox)
	w.run(t, func(p *simproc.Proc) {
		sess, err := d.BeginUpload(p, "bad.bin", 10e6, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.WriteChunk(p, 4e6, false); err != nil {
			t.Error(err)
			return
		}
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
		for _, n := range bad {
			if _, err := sess.WriteChunk(p, n, false); err == nil {
				t.Errorf("chunk %v: written", n)
			}
		}
		if got := sess.Written(); got != 4e6 {
			t.Errorf("offset %v after refused chunks, want 4e6", got)
		}
		for _, off := range bad {
			tok := sess.Token()
			tok.Offset = off
			if _, err := d.Resume(p, tok, ""); err == nil {
				t.Errorf("offset %v: resumed", off)
			}
		}
		if _, err := sess.WriteChunk(p, 6e6, true); err != nil {
			t.Error(err)
		}
	})
}
