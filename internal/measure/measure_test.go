package measure

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"detournet/internal/core"
	"detournet/internal/scenario"
)

// smallSpec keeps harness tests fast: 2 sizes, 3 runs keep 2.
func smallSpec(client, provider string) GridSpec {
	return GridSpec{
		Client: client, Provider: provider,
		SizesMB: []int{10, 20},
		Runs:    3, Keep: 2,
		Seed: 99,
	}
}

func TestRunGridShape(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	if len(g.Cells) != 2*3 {
		t.Fatalf("cells = %d, want 6", len(g.Cells))
	}
	for _, c := range g.Cells {
		if len(c.Runs) != 3 {
			t.Fatalf("runs = %d", len(c.Runs))
		}
		if c.Summary.N != 2 {
			t.Fatalf("kept %d runs, want 2", c.Summary.N)
		}
		if c.Summary.Mean <= 0 {
			t.Fatalf("non-positive mean: %+v", c)
		}
		if c.Route.Kind == core.Detour && c.Hop1 <= 0 {
			t.Fatalf("detour cell missing hop1: %+v", c)
		}
		if c.Route.Kind == core.Direct && c.Hop1 != 0 {
			t.Fatalf("direct cell has hop1: %+v", c)
		}
	}
}

func TestGridDeterministic(t *testing.T) {
	run := func() []float64 {
		w := scenario.Build(42)
		g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
		var out []float64
		for _, c := range g.Cells {
			out = append(out, c.Runs...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grid not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCellAndSeriesLookups(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	c := g.Cell(10, core.DirectRoute)
	if c == nil || c.SizeMB != 10 {
		t.Fatalf("Cell lookup: %+v", c)
	}
	if g.Cell(999, core.DirectRoute) != nil {
		t.Fatal("bogus size resolved")
	}
	// Transfer time grows with size on every route.
	for _, r := range g.Spec.Routes {
		if s := means(g, r); len(s) != 2 || s[0] <= 0 || s[1] <= s[0] {
			t.Fatalf("series for %v = %v, want two positive, increasing means", r, s)
		}
	}
}

func TestFormatTable(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	out := g.FormatTable()
	if !strings.Contains(out, "Size(MB)") || !strings.Contains(out, "Direct") {
		t.Fatalf("table header missing:\n%s", out)
	}
	if !strings.Contains(out, "via ualberta") {
		t.Fatalf("detour column missing:\n%s", out)
	}
	// Relative percentages in brackets for detours.
	if !strings.Contains(out, "[") || !strings.Contains(out, "%]") {
		t.Fatalf("relative change missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+2 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestFormatFigure(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	out := g.FormatFigure("Fig X")
	if !strings.HasPrefix(out, "Fig X\n") || !strings.Contains(out, "±") {
		t.Fatalf("figure format:\n%s", out)
	}
}

func TestFastestSlowestAndExceptions(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	// On UBC->GDrive the UAlberta detour wins at every size.
	fast, slow := g.OverallFastest()
	if fast != core.ViaRoute(scenario.UAlberta) {
		t.Fatalf("overall fastest = %v", fast)
	}
	if slow != core.ViaRoute(scenario.UMich) {
		t.Fatalf("overall slowest = %v", slow)
	}
	for _, mb := range g.Spec.SizesMB {
		if g.Fastest(mb) != fast {
			t.Fatalf("per-size fastest at %dMB = %v", mb, g.Fastest(mb))
		}
		if g.Slowest(mb) != slow {
			t.Fatalf("per-size slowest at %dMB = %v", mb, g.Slowest(mb))
		}
	}
	if ex := g.Exceptions(); len(ex) != 0 {
		t.Fatalf("unexpected exceptions: %v", ex)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := GridSpec{Client: "c", Provider: "p"}.WithDefaults()
	if s.Runs != 7 || s.Keep != 5 {
		t.Fatalf("protocol defaults: %+v", s)
	}
	if len(s.SizesMB) != 7 || s.SizesMB[6] != 100 {
		t.Fatalf("sizes: %v", s.SizesMB)
	}
	if len(s.Routes) != 3 {
		t.Fatalf("routes: %v", s.Routes)
	}
}

func TestWriteCSV(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+6 { // header + 2 sizes x 3 routes
		t.Fatalf("csv rows = %d, want 7", len(recs))
	}
	if recs[0][0] != "client" || recs[0][4] != "mean_s" {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != scenario.UBC || recs[1][1] != scenario.GoogleDrive {
		t.Fatalf("row = %v", recs[1])
	}
	// Raw runs column holds 3 semicolon-separated values.
	if got := strings.Count(recs[1][9], ";"); got != 2 {
		t.Fatalf("runs column = %q", recs[1][9])
	}
}

func TestWriteJSON(t *testing.T) {
	w := scenario.Build(42)
	g := RunGrid(w, smallSpec(scenario.UBC, scenario.GoogleDrive))
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var cells []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("json cells = %d", len(cells))
	}
	c := cells[0]
	if c["client"] != scenario.UBC || c["size_mb"].(float64) != 10 {
		t.Fatalf("cell = %v", c)
	}
	if len(c["runs_s"].([]any)) != 3 {
		t.Fatalf("runs_s = %v", c["runs_s"])
	}
}

func TestDownloadGrid(t *testing.T) {
	w := scenario.Build(42)
	spec := smallSpec(scenario.UBC, scenario.GoogleDrive)
	spec.Direction = Download
	g := RunGrid(w, spec)
	if len(g.Cells) != 6 {
		t.Fatalf("cells = %d", len(g.Cells))
	}
	for _, c := range g.Cells {
		if c.Summary.Mean <= 0 {
			t.Fatalf("cell %+v", c)
		}
	}
	// Downloads cross the reverse paths: the google-peer route serves
	// gdrive->vncv1 so the detour via UAlberta should still beat direct
	// (whose reverse path mirrors the pinned pacificwave artifact only
	// for uploads — here direct rides the fast peering, so just check
	// the grid is sane and slower for bigger files).
	for _, r := range g.Spec.Routes {
		s := means(g, r)
		if s[1] <= s[0] {
			t.Fatalf("download series for %v not increasing: %v", r, s)
		}
	}
	if Download.String() != "download" || Upload.String() != "upload" {
		t.Fatal("direction strings")
	}
}

func TestDownloadGridSeedsProviderStore(t *testing.T) {
	w := scenario.Build(43)
	spec := smallSpec(scenario.Purdue, scenario.OneDrive)
	spec.Direction = Download
	RunGrid(w, spec)
	if len(w.Services[scenario.OneDrive].Store.List()) == 0 {
		t.Fatal("download grid left no seeded objects")
	}
}

// means returns the per-size mean transfer times for a route.
func means(g *Grid, route core.Route) []float64 {
	var out []float64
	for _, mb := range g.Spec.SizesMB {
		out = append(out, g.Cell(mb, route).Summary.Mean)
	}
	return out
}
