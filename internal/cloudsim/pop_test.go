package cloudsim

import (
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/httpsim"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

// popRig: client --slow(1MB/s)--> dc, but client --fast(8)--> pop
// --fast(8)--> dc: the POP bypasses the slow direct path.
func popRig(t *testing.T) (*simclock.Engine, *simproc.Runner, *transport.Net, *Service, *POP) {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	for _, n := range []string{"client", "pop", "dc"} {
		g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
	}
	g.MustConnect("client", "dc", topology.LinkSpec{CapacityBps: 1e6, DelaySec: 0.010})
	g.MustConnect("client", "pop", topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.004})
	g.MustConnect("pop", "dc", topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.012})
	tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
	svc := NewService(eng, tn, "GoogleDrive", "dc", GoogleDrive)
	svc.Start(tn)
	pop := StartPOP(tn, svc, "pop")
	return eng, r, tn, svc, pop
}

func runProc(t *testing.T, r *simproc.Runner, fn func(p *simproc.Proc)) {
	t.Helper()
	done := false
	r.Go("test", func(p *simproc.Proc) {
		fn(p)
		done = true
	})
	r.RunUntil(simclock.Time(1e6))
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestPOPForwardsRequests(t *testing.T) {
	_, r, tn, svc, pop := popRig(t)
	rt := svc.Auth.RegisterClient("x", "y")
	runProc(t, r, func(p *simproc.Proc) {
		c := httpsim.NewClient(tn, "client", APIPort, true)
		// Token fetch through the POP works (forwarded to the DC's auth).
		resp, err := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/oauth2/token", Host: "pop",
			Body: []byte("grant_type=refresh_token&client_id=x&client_secret=y&refresh_token=" + rt),
		})
		if err != nil || !resp.OK() {
			t.Errorf("token via pop: %v %v", resp, err)
		}
		c.CloseIdle()
	})
	if pop.Forwarded == 0 {
		t.Fatal("pop forwarded nothing")
	}
}

func TestPOPUploadLandsAtDatacenter(t *testing.T) {
	_, r, tn, svc, _ := popRig(t)
	rt := svc.Auth.RegisterClient("x", "y")
	runProc(t, r, func(p *simproc.Proc) {
		c := httpsim.NewClient(tn, "client", APIPort, true)
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/oauth2/token", Host: "pop",
			Body: []byte("grant_type=refresh_token&client_id=x&client_secret=y&refresh_token=" + rt),
		})
		body := string(resp.Body)
		tok := body[len(`{"access_token":"`):]
		tok = tok[:findQ(tok)]
		// Resumable init + single PUT via the POP.
		resp, err := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/upload/drive/v3/files?uploadType=resumable", Host: "pop",
			Header: httpsim.Header{{Key: "Authorization", Value: "Bearer " + tok}},
			Body:   []byte(`{"name":"via-pop.bin","size":1000000}`),
		})
		if err != nil || !resp.OK() {
			t.Errorf("init via pop: %v %v", resp, err)
			return
		}
		resp, err = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: resp.Header.Get("Location"), Host: "pop",
			Header:   httpsim.Header{{Key: "Authorization", Value: "Bearer " + tok}, {Key: "Content-Range", Value: "bytes 0-999999/1000000"}},
			BodySize: 1000000,
		})
		if err != nil || !resp.OK() {
			t.Errorf("put via pop: %v %v", resp, err)
		}
		c.CloseIdle()
	})
	if o, ok := svc.Store.Get("via-pop.bin"); !ok || o.Size != 1000000 {
		t.Fatalf("object not at datacenter: %+v %v", o, ok)
	}
}

func findQ(s string) int {
	for i, c := range s {
		if c == '"' {
			return i
		}
	}
	return len(s)
}

func TestPOPFasterThanSlowDirectPath(t *testing.T) {
	_, r, tn, svc, _ := popRig(t)
	svc.Auth.RegisterClient("app", "s")
	var direct, viaPOP float64
	runProc(t, r, func(p *simproc.Proc) {
		upload := func(frontend, name string) float64 {
			c := httpsim.NewClient(tn, "client", APIPort, true)
			defer c.CloseIdle()
			resp, _ := c.Do(p, &httpsim.Request{
				Method: "POST", Path: "/oauth2/token", Host: frontend,
				Body: []byte("grant_type=refresh_token&client_id=app&client_secret=s&refresh_token=rt-app-0"),
			})
			body := string(resp.Body)
			tok := body[len(`{"access_token":"`):]
			tok = tok[:findQ(tok)]
			t0 := p.Now()
			resp, _ = c.Do(p, &httpsim.Request{
				Method: "POST", Path: "/upload/drive/v3/files?uploadType=resumable", Host: frontend,
				Header: httpsim.Header{{Key: "Authorization", Value: "Bearer " + tok}},
				Body:   []byte(`{"name":"` + name + `","size":20000000}`),
			})
			resp, _ = c.Do(p, &httpsim.Request{
				Method: "PUT", Path: resp.Header.Get("Location"), Host: frontend,
				Header:   httpsim.Header{{Key: "Authorization", Value: "Bearer " + tok}, {Key: "Content-Range", Value: "bytes 0-19999999/20000000"}},
				BodySize: 20000000,
			})
			if !resp.OK() {
				t.Errorf("upload via %s failed: %+v", frontend, resp)
			}
			return float64(p.Now() - t0)
		}
		direct = upload("dc", "direct.bin")
		viaPOP = upload("pop", "pop.bin")
	})
	// Direct: 20MB at 1MB/s ≈ 20s. Via POP: ~2.6s + ~2.6s ≈ 5-6s.
	if viaPOP >= direct/2 {
		t.Fatalf("POP (%v) should at least halve the slow direct path (%v)", viaPOP, direct)
	}
}

// When the upstream exchange fails, the POP answers 500 at once while
// the datacenter's handler may still be reading the forwarded request.
// The forwarded copy has its own header, so a client that reuses its
// request after the 500 (as the SDK clients do) cannot change what the
// handler reads.
func TestPOPForwardedHeaderIsItsOwn(t *testing.T) {
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	for _, n := range []string{"client", "pop", "dc"} {
		g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
	}
	g.MustConnect("client", "pop", topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.004})
	g.MustConnect("pop", "dc", topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.012})
	tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
	svc := NewService(eng, tn, "GoogleDrive", "dc", GoogleDrive)
	l := svc.Start(tn)
	pop := StartPOP(tn, svc, "pop")
	var read string
	svc.HTTP.Handle("GET", "/probe", func(ctx *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
		ctx.Proc.Sleep(1)
		read = req.Header.Get("X-Probe")
		return &httpsim.Response{Status: httpsim.StatusOK}
	})
	r.Go("outage", func(p *simproc.Proc) {
		// Mid-handler: the datacenter stops listening and the POP's
		// upstream conn drops, so the POP's redial is refused.
		p.Sleep(0.5)
		l.Close()
		pop.upstream.CloseIdle()
	})
	runProc(t, r, func(p *simproc.Proc) {
		c := httpsim.NewClient(tn, "client", APIPort, true)
		req := &httpsim.Request{Method: "GET", Path: "/probe", Host: "pop",
			Header: httpsim.Header{{Key: "X-Probe", Value: "sent"}}}
		resp, err := c.Do(p, req)
		if err != nil || resp.Status != httpsim.StatusInternalServerError {
			t.Errorf("got %v %v, want the POP's 500", resp, err)
		}
		req.Header[0].Value = "reused"
		p.Sleep(2)
		c.CloseIdle()
	})
	if read != "sent" {
		t.Fatalf("the datacenter's handler read %q, want %q", read, "sent")
	}
}
