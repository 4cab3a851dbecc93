package rsyncx

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

type rig struct {
	eng *simclock.Engine
	r   *simproc.Runner
	tn  *transport.Net
	d   *Daemon
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	g.MustAddNode(&topology.Node{Name: "user", Kind: topology.Host, RespondsICMP: true})
	g.MustAddNode(&topology.Node{Name: "dtn", Kind: topology.Host, RespondsICMP: true})
	g.MustConnect("user", "dtn", topology.LinkSpec{CapacityBps: 6e6, DelaySec: 0.008})
	tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
	d := NewDaemon(tn, "dtn")
	d.Start()
	return &rig{eng: eng, r: r, tn: tn, d: d}
}

func (rg *rig) run(t *testing.T, fn func(p *simproc.Proc, cl *Client)) {
	t.Helper()
	done := false
	rg.r.Go("test", func(p *simproc.Proc) {
		fn(p, NewClient(rg.tn, "user", "dtn"))
		done = true
	})
	rg.r.RunUntil(simclock.Time(1e6))
	if !done {
		t.Fatal("test proc did not finish")
	}
}

func TestPushStoresVerifiedData(t *testing.T) {
	rg := newRig(t)
	rng := rand.New(rand.NewSource(1))
	data := randBytes(rng, 50000)
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		if err := cl.Push(p, "f.bin", data); err != nil {
			t.Errorf("push: %v", err)
			return
		}
		st, ok := rg.d.Staged("f.bin")
		if !ok {
			t.Error("file not staged")
			return
		}
		if st.MD5 != Checksum(data) || st.Size != float64(len(data)) {
			t.Errorf("staged meta wrong: %+v", st)
		}
		if !bytes.Equal(st.Data, data) {
			t.Error("staged bytes differ")
		}
	})
	if rg.d.Pushes != 1 {
		t.Fatalf("Pushes = %d", rg.d.Pushes)
	}
}

func TestSecondPushUsesDelta(t *testing.T) {
	rg := newRig(t)
	rng := rand.New(rand.NewSource(2))
	data := randBytes(rng, 2_000_000)
	var t1, t2 float64
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		t0 := p.Now()
		if err := cl.Push(p, "f.bin", data); err != nil {
			t.Error(err)
			return
		}
		t1 = float64(p.Now() - t0)
		// Mutate a single byte: second push should ship a tiny delta and
		// be much faster.
		data2 := append([]byte(nil), data...)
		data2[100] ^= 0xff
		t0 = p.Now()
		if err := cl.Push(p, "f.bin", data2); err != nil {
			t.Error(err)
			return
		}
		t2 = float64(p.Now() - t0)
		st, _ := rg.d.Staged("f.bin")
		if !bytes.Equal(st.Data, data2) {
			t.Error("updated bytes wrong")
		}
	})
	if t2 >= t1/3 {
		t.Fatalf("delta push not cheaper: first=%v second=%v", t1, t2)
	}
}

func TestPushSizedChargesWireTime(t *testing.T) {
	rg := newRig(t)
	var dur float64
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		t0 := p.Now()
		if err := cl.PushSized(p, "big.bin", 10e6, "digest"); err != nil {
			t.Error(err)
			return
		}
		dur = float64(p.Now() - t0)
		st, ok := rg.d.Staged("big.bin")
		if !ok || st.Size != 10e6 || st.Data != nil || st.MD5 != "digest" {
			t.Errorf("staged = %+v %v", st, ok)
		}
	})
	// 10.3 MB wire at 6 MB/s ≈ 1.7s plus handshakes/acks.
	if dur < 1.6 || dur > 3 {
		t.Fatalf("sized push took %v, want ~1.7-3s", dur)
	}
}

func TestDeleteStaged(t *testing.T) {
	rg := newRig(t)
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		if err := cl.PushSized(p, "f.bin", 1000, ""); err != nil {
			t.Error(err)
		}
		if err := cl.Delete(p, "f.bin"); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, ok := rg.d.Staged("f.bin"); ok {
			t.Error("file still staged")
		}
		if err := cl.Delete(p, "f.bin"); err == nil {
			t.Error("double delete succeeded")
		} else if !strings.Contains(err.Error(), "no such") {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

func TestPushToUnreachableDaemon(t *testing.T) {
	rg := newRig(t)
	rg.run(t, func(p *simproc.Proc, _ *Client) {
		cl := NewClient(rg.tn, "user", "user") // no daemon there
		if err := cl.Push(p, "f", []byte("x")); err == nil {
			t.Error("push to non-daemon succeeded")
		}
		if err := cl.PushSized(p, "f", 10, ""); err == nil {
			t.Error("sized push to non-daemon succeeded")
		}
	})
}

func TestNegativeSizeRejected(t *testing.T) {
	rg := newRig(t)
	rg.run(t, func(p *simproc.Proc, cl *Client) {
		if err := cl.PushSized(p, "f", -1, ""); err == nil {
			t.Error("negative size accepted")
		}
	})
}

func TestConcurrentPushesShareBandwidth(t *testing.T) {
	rg := newRig(t)
	var d1, d2 float64
	done1 := false
	rg.r.Go("p1", func(p *simproc.Proc) {
		cl := NewClient(rg.tn, "user", "dtn")
		t0 := p.Now()
		if err := cl.PushSized(p, "a.bin", 6e6, ""); err != nil {
			t.Error(err)
		}
		d1 = float64(p.Now() - t0)
		done1 = true
	})
	done2 := false
	rg.r.Go("p2", func(p *simproc.Proc) {
		cl := NewClient(rg.tn, "user", "dtn")
		t0 := p.Now()
		if err := cl.PushSized(p, "b.bin", 6e6, ""); err != nil {
			t.Error(err)
		}
		d2 = float64(p.Now() - t0)
		done2 = true
	})
	rg.r.RunUntil(simclock.Time(1e6))
	if !done1 || !done2 {
		t.Fatal("pushes did not finish")
	}
	// Alone each would take ~1s; sharing the 6MB/s link they take ~2s.
	if d1 < 1.8 || d2 < 1.8 {
		t.Fatalf("concurrent pushes too fast: %v %v", d1, d2)
	}
}
