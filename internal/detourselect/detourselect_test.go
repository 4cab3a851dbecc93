package detourselect

import (
	"testing"

	"detournet/internal/core"
	"detournet/internal/scenario"
	"detournet/internal/simproc"
)

func choose(t *testing.T, seed int64, client, provider string, size float64) (core.Route, []Prediction) {
	t.Helper()
	w := scenario.Build(seed)
	var route core.Route
	var preds []Prediction
	w.RunWorkload("select", func(p *simproc.Proc) {
		direct := w.NewSDKClient(client, provider)
		detours := map[string]*core.DetourClient{
			scenario.UAlberta: w.NewDetourClient(client, scenario.UAlberta),
			scenario.UMich:    w.NewDetourClient(client, scenario.UMich),
		}
		var err error
		route, preds, err = NewSelector().Choose(p, direct, detours, provider, size)
		if err != nil {
			t.Error(err)
		}
		direct.Close()
	})
	return route, preds
}

func TestSelectorPicksUAlbertaForUBCGoogleDrive(t *testing.T) {
	route, preds := choose(t, 31, scenario.UBC, scenario.GoogleDrive, 100e6)
	if route != core.ViaRoute(scenario.UAlberta) {
		t.Fatalf("chose %v, want via ualberta; preds=%+v", route, preds)
	}
	if len(preds) != 3 || preds[0].Seconds > preds[1].Seconds {
		t.Fatalf("predictions unsorted: %+v", preds)
	}
}

func TestSelectorPicksDirectForUBCDropbox(t *testing.T) {
	route, preds := choose(t, 32, scenario.UBC, scenario.Dropbox, 100e6)
	if route != core.DirectRoute {
		t.Fatalf("chose %v, want Direct; preds=%+v", route, preds)
	}
}

func TestSelectorPicksDetourForPurdueGoogleDrive(t *testing.T) {
	route, _ := choose(t, 33, scenario.Purdue, scenario.GoogleDrive, 100e6)
	if route.Kind != core.Detour {
		t.Fatalf("chose %v, want a detour", route)
	}
}

func TestSelectorPredictionsTrackReality(t *testing.T) {
	// The predicted time for the chosen route should be within 2.5x of
	// the realized time (probe-based extrapolation on a noisy world).
	w := scenario.Build(34)
	w.RunWorkload("verify", func(p *simproc.Proc) {
		direct := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
		detours := map[string]*core.DetourClient{
			scenario.UAlberta: w.NewDetourClient(scenario.UBC, scenario.UAlberta),
		}
		route, preds, err := NewSelector().Choose(p, direct, detours, scenario.GoogleDrive, 60e6)
		if err != nil {
			t.Error(err)
			return
		}
		rep, err := core.Upload(p, route, direct, detours, scenario.GoogleDrive, "verify.bin", 60e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		pred := preds[0].Seconds
		if rep.Total > pred*2.5 || rep.Total < pred/2.5 {
			t.Errorf("prediction %v vs actual %v: off by more than 2.5x", pred, rep.Total)
		}
		direct.Close()
	})
}

func TestSelectorValidation(t *testing.T) {
	w := scenario.Build(35)
	w.RunWorkload("bad", func(p *simproc.Proc) {
		direct := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
		if _, _, err := NewSelector().Choose(p, direct, nil, scenario.GoogleDrive, 0); err == nil {
			t.Error("zero size accepted")
		}
		direct.Close()
	})
}

// TestBanditAdaptsToChange: Best follows the running throughput
// estimates when the bottleneck moves.
func TestBanditAdaptsToChange(t *testing.T) {
	routes := []core.Route{core.DirectRoute, core.ViaRoute("a")}
	b := NewBandit(routes)
	fast := core.ViaRoute("a")
	observe := func(n int) {
		for i := 0; i < n; i++ {
			r := routes[i%len(routes)]
			sec := 30.0
			if r == fast {
				sec = 10
			}
			b.Observe(r, 100e6, sec)
		}
	}
	observe(100)
	if b.Score(core.ViaRoute("a")) <= b.Score(core.DirectRoute) {
		t.Fatalf("pre-change scores direct=%v a=%v, want a ahead", b.Score(core.DirectRoute), b.Score(core.ViaRoute("a")))
	}
	// The bottleneck moves: direct becomes fast.
	fast = core.DirectRoute
	observe(300)
	if b.Score(core.DirectRoute) <= b.Score(core.ViaRoute("a")) {
		t.Fatalf("bandit did not adapt: scores direct=%v a=%v", b.Score(core.DirectRoute), b.Score(core.ViaRoute("a")))
	}
}

func TestBanditIgnoresBadObservations(t *testing.T) {
	b := NewBandit([]core.Route{core.DirectRoute})
	b.Observe(core.DirectRoute, 100, -1)
	if b.Score(core.DirectRoute) != 0 {
		t.Fatal("negative duration recorded")
	}
}
