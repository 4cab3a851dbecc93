package core

import (
	"math"
	"strings"
	"testing"

	"detournet/internal/cloudsim"
	"detournet/internal/fluid"
	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

// testbed models the UBC story in miniature: a slow direct path from
// user to provider (2 MB/s) and fast paths user→DTN and DTN→provider
// (8 MB/s each), so a detour should win on large files.
type testbed struct {
	eng   *simclock.Engine
	r     *simproc.Runner
	g     *topology.Graph
	tn    *transport.Net
	svc   *cloudsim.Service
	agent *Agent
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	for _, n := range []string{"user", "dtn", "provider-dc"} {
		g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
	}
	g.MustConnect("user", "provider-dc", topology.LinkSpec{CapacityBps: 2e6, DelaySec: 0.010})
	g.MustConnect("user", "dtn", topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.006})
	g.MustConnect("dtn", "provider-dc", topology.LinkSpec{CapacityBps: 8e6, DelaySec: 0.012})
	tn := transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})

	svc := cloudsim.NewService(eng, tn, "GoogleDrive", "provider-dc", cloudsim.GoogleDrive)
	svc.Start(tn)

	daemon := rsyncx.NewDaemon(tn, "dtn")
	daemon.Start()
	agent := NewAgent(tn, "dtn", daemon)
	creds := sdk.Register(svc, "dtn-agent", "s")
	agent.RegisterProvider(sdk.NewGoogleDrive(eng, tn, "dtn", "provider-dc", creds, sdk.Options{}))
	agent.Start()

	return &testbed{eng: eng, r: r, g: g, tn: tn, svc: svc, agent: agent}
}

// linkState raises or drops both directions of an adjacency.
func (tb *testbed) linkState(a, b string, up bool) {
	tb.g.SetLinkState(a, b, up)
	tb.g.SetLinkState(b, a, up)
}

func (tb *testbed) directClient() sdk.Client {
	creds := sdk.Register(tb.svc, "user-app", "s")
	return sdk.NewGoogleDrive(tb.eng, tb.tn, "user", "provider-dc", creds, sdk.Options{})
}

func (tb *testbed) run(t *testing.T, fn func(p *simproc.Proc)) {
	t.Helper()
	done := false
	tb.r.Go("test", func(p *simproc.Proc) {
		fn(p)
		done = true
	})
	tb.r.RunUntil(simclock.Time(1e7))
	if !done {
		t.Fatal("test proc did not finish")
	}
}

func TestDirectUpload(t *testing.T) {
	tb := newTestbed(t)
	client := tb.directClient()
	tb.run(t, func(p *simproc.Proc) {
		rep, err := DirectUpload(p, client, "f.bin", 20e6, "d")
		if err != nil {
			t.Error(err)
			return
		}
		if rep.Route.Kind != Direct || rep.Hop1 != 0 || rep.Total != rep.Hop2 {
			t.Errorf("report = %+v", rep)
		}
		// 20.6MB wire at 2MB/s ≈ 10.3s.
		if rep.Total < 10 || rep.Total > 13 {
			t.Errorf("direct total = %v, want ~10.3-12s", rep.Total)
		}
		if rep.Info.Size != 20e6 {
			t.Errorf("info = %+v", rep.Info)
		}
	})
}

func TestStoreAndForwardDetour(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		rep, err := dc.Upload(p, "GoogleDrive", "f.bin", 20e6, "d")
		if err != nil {
			t.Error(err)
			return
		}
		if rep.Route.String() != "via dtn" {
			t.Errorf("route = %v", rep.Route)
		}
		// Hops: ~2.6s each at 8MB/s; total ≈ 5.5-7s, beating direct ~10.3s.
		if rep.Total > 9 {
			t.Errorf("detour total = %v, want < 9", rep.Total)
		}
		if rep.Hop1 <= 0 || rep.Hop2 <= 0 {
			t.Errorf("hop times: %+v", rep)
		}
		// Store-and-forward: hops are serial; Total >= Hop1+Hop2.
		if rep.Total < rep.Hop1+rep.Hop2-1e-9 {
			t.Errorf("total %v < hop1+hop2 %v", rep.Total, rep.Hop1+rep.Hop2)
		}
		if o, ok := tb.svc.Store.Get("f.bin"); !ok || o.Size != 20e6 {
			t.Errorf("not stored at provider: %+v %v", o, ok)
		}
	})
	if tb.agent.Relayed != 1 {
		t.Fatalf("Relayed = %d", tb.agent.Relayed)
	}
}

func TestDetourBeatsDirectOnThisTopology(t *testing.T) {
	tb := newTestbed(t)
	client := tb.directClient()
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		direct, err := DirectUpload(p, client, "a.bin", 30e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		det, err := dc.Upload(p, "GoogleDrive", "b.bin", 30e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		if det.Total >= direct.Total {
			t.Errorf("detour %v not faster than direct %v", det.Total, direct.Total)
		}
	})
}

func TestPipelinedBeatsStoreAndForward(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		saf, err := dc.Upload(p, "GoogleDrive", "a.bin", 40e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		pipe, err := dc.UploadPipelined(p, "GoogleDrive", "b.bin", 40e6, "", 4<<20)
		if err != nil {
			t.Error(err)
			return
		}
		// Overlapping hops should save a large fraction of the shorter
		// hop (both ~5s here).
		if pipe.Total >= saf.Total*0.85 {
			t.Errorf("pipelined %v vs store-and-forward %v: no overlap benefit", pipe.Total, saf.Total)
		}
		if o, ok := tb.svc.Store.Get("b.bin"); !ok || o.Size != 40e6 {
			t.Errorf("pipelined object: %+v %v", o, ok)
		}
	})
}

func TestCleanStagingDeletesBeforeTransfer(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		if _, err := dc.Upload(p, "GoogleDrive", "f.bin", 1e6, ""); err != nil {
			t.Error(err)
		}
		// Second run must also succeed and re-stage (no stale reuse).
		if _, err := dc.Upload(p, "GoogleDrive", "f.bin", 2e6, ""); err != nil {
			t.Error(err)
		}
		if o, _ := tb.svc.Store.Get("f.bin"); o.Size != 2e6 {
			t.Errorf("stale staging reused: %+v", o)
		}
	})
}

func TestUnknownProviderRejected(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		_, err := dc.Upload(p, "Nope", "f.bin", 1e6, "")
		if err == nil || !strings.Contains(err.Error(), "unknown provider") {
			t.Errorf("err = %v", err)
		}
		_, err = dc.UploadPipelined(p, "Nope", "f.bin", 1e6, "", 0)
		if err == nil {
			t.Error("pipelined to unknown provider succeeded")
		}
	})
}

func TestRelayWithoutStagedFileFails(t *testing.T) {
	tb := newTestbed(t)
	tb.run(t, func(p *simproc.Proc) {
		c, err := tb.tn.Dial(p, "user", "dtn", AgentPort, transport.DialOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		msg, err := c.Exchange(p, relayUpload{Name: "ghost", Provider: "GoogleDrive"}, ctrlBytes)
		if err != nil {
			t.Error(err)
			return
		}
		res := msg.Payload.(relayResult)
		if res.OK || !strings.Contains(res.Err, "not staged") {
			t.Errorf("res = %+v", res)
		}
	})
}

func TestUploadDispatch(t *testing.T) {
	tb := newTestbed(t)
	client := tb.directClient()
	detours := map[string]*DetourClient{"dtn": NewDetourClient(tb.tn, "user", "dtn")}
	tb.run(t, func(p *simproc.Proc) {
		rep, err := Upload(p, DirectRoute, client, detours, "GoogleDrive", "a.bin", 1e6, "")
		if err != nil || rep.Route.Kind != Direct {
			t.Errorf("direct dispatch: %+v %v", rep, err)
		}
		rep, err = Upload(p, ViaRoute("dtn"), client, detours, "GoogleDrive", "b.bin", 1e6, "")
		if err != nil || rep.Route.Via != "dtn" {
			t.Errorf("detour dispatch: %+v %v", rep, err)
		}
		if _, err := Upload(p, ViaRoute("ghost"), client, detours, "GoogleDrive", "c.bin", 1e6, ""); err == nil {
			t.Error("dispatch to unknown detour succeeded")
		}
	})
}

func TestRouteStrings(t *testing.T) {
	if DirectRoute.String() != "Direct" || ViaRoute("UAlberta").String() != "via UAlberta" {
		t.Fatal("route labels")
	}
}

func TestPipelinedValidation(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		if _, err := dc.UploadPipelined(p, "GoogleDrive", "f", 0, "", 0); err == nil {
			t.Error("zero-size pipelined accepted")
		}
	})
}

func TestAgentProviderRegistrationGuard(t *testing.T) {
	tb := newTestbed(t)
	creds := sdk.Register(tb.svc, "x", "y")
	wrong := sdk.NewGoogleDrive(tb.eng, tb.tn, "user", "provider-dc", creds, sdk.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("agent accepted client dialing from the wrong host")
		}
	}()
	tb.agent.RegisterProvider(wrong)
}

func TestReportTimesFinite(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	tb.run(t, func(p *simproc.Proc) {
		rep, err := dc.Upload(p, "GoogleDrive", "f.bin", 10e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		for _, v := range []float64{rep.Total, rep.Hop1, rep.Hop2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("bad time %v in %+v", v, rep)
			}
		}
	})
}
