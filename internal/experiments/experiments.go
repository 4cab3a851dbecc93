// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment runs the measurement grid it needs in a
// freshly built, seeded world and renders the paper's presentation
// format; the underlying grids stay accessible so tests and benchmarks
// can assert the shape (who wins, by what factor) rather than parse
// text.
//
// The per-experiment index lives in DESIGN.md; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"

	"detournet/internal/core"
	"detournet/internal/fileutil"
	"detournet/internal/geo"
	"detournet/internal/measure"
	"detournet/internal/scenario"
	"detournet/internal/traceroutex"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness; the paper-default 2015 reproduces the
	// committed EXPERIMENTS.md numbers.
	Seed int64
	// Runs/Keep set the measurement protocol (7/5 in the paper).
	Runs, Keep int
	// SizesMB are the file sizes; the paper's seven by default.
	SizesMB []int
}

// Default returns the paper's protocol at the committed seed.
func Default() Options {
	return Options{Seed: 2015, Runs: 7, Keep: 5, SizesMB: fileutil.PaperSizesMB}
}

// Quick returns a reduced protocol for smoke tests and examples: three
// sizes, three runs.
func Quick() Options {
	return Options{Seed: 2015, Runs: 3, Keep: 2, SizesMB: []int{10, 40, 100}}
}

// PairResult is one client→provider measurement grid.
type PairResult struct {
	Client   string
	Provider string
	Grid     *measure.Grid
	// Events is the number of virtual-clock events the pair's world ran,
	// Reallocs the number of max-min rate recomputations its fluid
	// network made.
	Events, Reallocs uint64
}

// pairSeed derives a stable per-pair world seed.
func pairSeed(o Options, client, provider string) int64 {
	h := int64(17)
	for _, s := range []string{client, provider} {
		for _, c := range s {
			h = h*131 + int64(c)
		}
	}
	return o.Seed*1000003 + h
}

// RunPair measures one client→provider grid in a fresh world.
func RunPair(o Options, client, provider string) *PairResult {
	w := scenario.Build(pairSeed(o, client, provider))
	g := measure.RunGrid(w, measure.GridSpec{
		Client: client, Provider: provider,
		SizesMB: o.SizesMB, Runs: o.Runs, Keep: o.Keep,
		Seed: o.Seed,
	})
	return &PairResult{Client: client, Provider: provider, Grid: g,
		Events: w.Eng.Processed(), Reallocs: w.Graph.Fluid().Reallocations}
}

// Suite holds every grid of the evaluation (3 clients × 3 providers).
type Suite struct {
	Options Options
	Pairs   map[string]*PairResult
}

func pairKey(client, provider string) string { return client + "|" + provider }

// Pair returns a grid, running it on first use.
func (s *Suite) Pair(client, provider string) *PairResult {
	if s.Pairs == nil {
		s.Pairs = make(map[string]*PairResult)
	}
	k := pairKey(client, provider)
	if p, ok := s.Pairs[k]; ok {
		return p
	}
	p := RunPair(s.Options, client, provider)
	s.Pairs[k] = p
	return p
}

// --- Figures 2, 4, 7, 8, 9, 10, 11: upload-performance bar charts ---

func (s *Suite) figure(num int, client, provider string) string {
	pr := s.Pair(client, provider)
	title := fmt.Sprintf("Fig %d: Upload performance from %s to %s (mean ± 1 stddev, seconds)",
		num, siteLabel(client), provider)
	return pr.Grid.FormatFigure(title)
}

// Fig2 is UBC → Google Drive.
func (s *Suite) Fig2() string { return s.figure(2, scenario.UBC, scenario.GoogleDrive) }

// Fig4 is UBC → Dropbox.
func (s *Suite) Fig4() string { return s.figure(4, scenario.UBC, scenario.Dropbox) }

// Fig7 is Purdue → Google Drive.
func (s *Suite) Fig7() string { return s.figure(7, scenario.Purdue, scenario.GoogleDrive) }

// Fig8 is Purdue → Dropbox.
func (s *Suite) Fig8() string { return s.figure(8, scenario.Purdue, scenario.Dropbox) }

// Fig9 is Purdue → OneDrive.
func (s *Suite) Fig9() string { return s.figure(9, scenario.Purdue, scenario.OneDrive) }

// Fig10 is UCLA → Google Drive.
func (s *Suite) Fig10() string { return s.figure(10, scenario.UCLA, scenario.GoogleDrive) }

// Fig11 is UCLA → Dropbox.
func (s *Suite) Fig11() string { return s.figure(11, scenario.UCLA, scenario.Dropbox) }

// --- Tables II and III: average transfer times with relative change ---

// TableII is UBC → Google Drive.
func (s *Suite) TableII() string {
	return "Table II: UBC-to-Google Drive average transfer times\n" +
		s.Pair(scenario.UBC, scenario.GoogleDrive).Grid.FormatTable()
}

// TableIII is Purdue → Google Drive.
func (s *Suite) TableIII() string {
	return "Table III: Purdue-to-Google Drive average transfer times\n" +
		s.Pair(scenario.Purdue, scenario.GoogleDrive).Grid.FormatTable()
}

// --- Table I: fastest/slowest route summary with exceptions ---

// TableI renders the 3×3 route summary.
func (s *Suite) TableI() string {
	var b strings.Builder
	b.WriteString("Table I: Summary of average file transfer times (fastest/slowest routes)\n")
	fmt.Fprintf(&b, "%-10s", "Client")
	for _, p := range scenario.ProviderNames {
		fmt.Fprintf(&b, " | %-44s", p)
	}
	b.WriteString("\n" + strings.Repeat("-", 10+47*3) + "\n")
	for _, c := range scenario.Clients {
		fmt.Fprintf(&b, "%-10s", siteLabel(c))
		for _, p := range scenario.ProviderNames {
			g := s.Pair(c, p).Grid
			fast, slow := g.OverallFastest()
			cell := fmt.Sprintf("Fastest: %s, Slowest: %s", fast, slow)
			if ex := g.Exceptions(); len(ex) > 0 {
				cell += fmt.Sprintf(" (exceptions: %v MB)", ex)
			}
			fmt.Fprintf(&b, " | %-44s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table IV: mean and standard deviation from Purdue ---

// TableIV renders the 60/100 MB mean±stddev rows for Dropbox and
// OneDrive from Purdue, including the overlap analysis of Sec III-B.
func (s *Suite) TableIV() string {
	var b strings.Builder
	b.WriteString("Table IV: Mean and standard deviation of upload times from Purdue (seconds)\n")
	fmt.Fprintf(&b, "%-10s %-26s %10s %10s\n", "File-size", "Type", "Mean", "StdDev")
	for _, mb := range []int{100, 60} {
		for _, prov := range []string{scenario.Dropbox, scenario.OneDrive} {
			g := s.Pair(scenario.Purdue, prov).Grid
			for _, r := range g.Spec.Routes {
				c := g.Cell(mb, r)
				if c == nil {
					continue
				}
				fmt.Fprintf(&b, "%-10d %-26s %10.2f %10.2f\n",
					mb, fmt.Sprintf("%s (%s)", prov, r), c.Summary.Mean, c.Summary.StdDev)
			}
		}
	}
	b.WriteString(s.tableIVOverlap())
	return b.String()
}

// tableIVOverlap reports which direct-vs-detour ±1σ intervals intersect.
func (s *Suite) tableIVOverlap() string {
	var b strings.Builder
	b.WriteString("±1σ overlap (direct vs detour):\n")
	for _, mb := range []int{100, 60} {
		for _, prov := range []string{scenario.Dropbox, scenario.OneDrive} {
			g := s.Pair(scenario.Purdue, prov).Grid
			direct := g.Cell(mb, core.DirectRoute)
			for _, r := range g.Spec.Routes[1:] {
				c := g.Cell(mb, r)
				if c == nil || direct == nil {
					continue
				}
				fmt.Fprintf(&b, "  %3d MB %s direct vs %s: overlap=%v\n",
					mb, prov, r, direct.Summary.Overlaps(c.Summary))
			}
		}
	}
	return b.String()
}

// --- Figures 5 and 6: traceroutes ---

// Fig5 renders the UBC → Google Drive traceroute.
func (s *Suite) Fig5() string {
	w := scenario.Build(s.Options.Seed)
	res, err := traceroutex.Run(w.Graph, scenario.UBC, scenario.GDriveDC, traceroutex.Options{})
	if err != nil {
		return "traceroute failed: " + err.Error()
	}
	return "Fig 5: UBC to Google Drive Server Traceroute\n" + res.Format()
}

// Fig6 renders the UAlberta → Google Drive traceroute.
func (s *Suite) Fig6() string {
	w := scenario.Build(s.Options.Seed)
	res, err := traceroutex.Run(w.Graph, scenario.UAlberta, scenario.GDriveDC, traceroutex.Options{})
	if err != nil {
		return "traceroute failed: " + err.Error()
	}
	return "Fig 6: UAlberta to Google Drive Server Traceroute\n" + res.Format()
}

// --- Fig 3 / Table V: geography ---

// siteOf maps scenario hosts to geographic sites.
var siteOf = map[string]geo.Site{
	scenario.UBC:        geo.UBC,
	scenario.UAlberta:   geo.UAlberta,
	scenario.UMich:      geo.UMich,
	scenario.Purdue:     geo.Purdue,
	scenario.UCLA:       geo.UCLA,
	scenario.GDriveDC:   geo.GoogleDriveDC,
	scenario.DropboxDC:  geo.DropboxDC,
	scenario.OneDriveDC: geo.OneDriveDC,
}

func siteLabel(host string) string {
	if s, ok := siteOf[host]; ok {
		return s.Name
	}
	return host
}

// Fig3 lists the locations of clients, intermediate nodes, and
// cloud-storage servers (the paper's map, as coordinates).
func (s *Suite) Fig3() string {
	var b strings.Builder
	b.WriteString("Fig 3: Locations of clients, intermediate nodes and cloud-storage servers\n")
	order := []string{scenario.UBC, scenario.UAlberta, scenario.UMich, scenario.Purdue,
		scenario.UCLA, scenario.GDriveDC, scenario.DropboxDC, scenario.OneDriveDC}
	for _, host := range order {
		site := siteOf[host]
		fmt.Fprintf(&b, "  %-12s %-22s (%.4f, %.4f)\n", site.Name, site.City, site.Lat, site.Lon)
	}
	return b.String()
}

// TableV renders the geographic summary of fastest routes: for every
// client and provider, the winning route, its path length in km, and the
// direct great-circle distance.
func (s *Suite) TableV() string {
	var b strings.Builder
	b.WriteString("Table V: Geographical summary of fastest routes\n")
	for _, c := range scenario.Clients {
		fmt.Fprintf(&b, "%s (%s):\n", siteLabel(c), siteOf[c].City)
		for _, p := range scenario.ProviderNames {
			g := s.Pair(c, p).Grid
			fast, _ := g.OverallFastest()
			dcHost := scenario.Providers[p]
			directKm := geo.HaversineKm(siteOf[c].Coord, siteOf[dcHost].Coord)
			var routeKm float64
			var desc string
			if fast.Kind == core.Direct {
				routeKm = directKm
				desc = "direct"
			} else {
				routeKm = geo.HaversineKm(siteOf[c].Coord, siteOf[fast.Via].Coord) +
					geo.HaversineKm(siteOf[fast.Via].Coord, siteOf[dcHost].Coord)
				desc = fast.String()
			}
			fmt.Fprintf(&b, "  -> %-12s fastest=%-14s path≈%5.0f km (direct %4.0f km)\n",
				p, desc, routeKm, directKm)
		}
	}
	return b.String()
}
