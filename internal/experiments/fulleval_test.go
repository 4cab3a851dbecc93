package experiments

import (
	"testing"

	"detournet/internal/core"
	"detournet/internal/scenario"
)

// TestFullEvaluationTableI runs the entire evaluation at the full
// protocol and checks every Table I cell's headline label in one place —
// the one-stop "does the reproduction still hold" test.
func TestFullEvaluationTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol; skipped with -short")
	}
	s := Run(Default())
	type expect struct {
		client, provider string
		fastestKind      core.RouteKind
		fastestVia       string // checked only for detours; "" = any
		slowestKind      core.RouteKind
	}
	// Paper Table I, with our one documented divergence (Purdue→OneDrive
	// detour-favoured in aggregate; see EXPERIMENTS.md).
	table := []expect{
		{scenario.UBC, scenario.GoogleDrive, core.Detour, scenario.UAlberta, core.Detour},
		{scenario.UBC, scenario.Dropbox, core.Direct, "", core.Detour},
		{scenario.UBC, scenario.OneDrive, core.Direct, "", core.Detour},
		{scenario.Purdue, scenario.GoogleDrive, core.Detour, "", core.Direct},
		{scenario.Purdue, scenario.Dropbox, core.Direct, "", core.Detour},
		{scenario.Purdue, scenario.OneDrive, core.Detour, scenario.UAlberta, core.Direct},
		{scenario.UCLA, scenario.GoogleDrive, core.Direct, "", core.Detour},
		{scenario.UCLA, scenario.Dropbox, core.Direct, "", core.Detour},
		{scenario.UCLA, scenario.OneDrive, core.Direct, "", core.Detour},
	}
	for _, e := range table {
		g := s.Pair(e.client, e.provider).Grid
		fast, slow := g.OverallFastest()
		if fast.Kind != e.fastestKind {
			t.Errorf("%s -> %s fastest = %v, want kind %v", e.client, e.provider, fast, e.fastestKind)
		}
		if e.fastestVia != "" && fast.Via != e.fastestVia {
			t.Errorf("%s -> %s fastest via %q, want %q", e.client, e.provider, fast.Via, e.fastestVia)
		}
		if slow.Kind != e.slowestKind {
			t.Errorf("%s -> %s slowest = %v, want kind %v", e.client, e.provider, slow, e.slowestKind)
		}
	}

	// Cross-cutting invariants of the whole suite.
	for _, c := range scenario.Clients {
		for _, prov := range scenario.ProviderNames {
			g := s.Pair(c, prov).Grid
			for _, route := range g.Spec.Routes {
				sizes := g.Spec.SizesMB
				for i := 1; i < len(sizes); i++ {
					// Mean transfer time is not wildly non-monotone in
					// size. Congestion episodes produce real dips (the
					// paper's own Table III has 586 s at 40 MB vs 558 s
					// at 50 MB), so only flag collapses below 30%.
					prev := g.Cell(sizes[i-1], route).Summary.Mean
					if cur := g.Cell(sizes[i], route).Summary.Mean; cur < prev*0.3 {
						t.Errorf("%s->%s %v: time dropped %v -> %v between sizes",
							c, prov, route, prev, cur)
					}
				}
			}
		}
	}
}
