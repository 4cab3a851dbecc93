// Package measure is the experiment harness: it drives upload grids
// (client × provider × route × file-size) through the simulated world
// with the paper's exact protocol — seven sequential runs per cell, mean
// and one standard deviation of the last five — and renders the tables
// and figure series in the paper's formats.
package measure

import (
	"fmt"
	"strings"

	"detournet/internal/core"
	"detournet/internal/fileutil"
	"detournet/internal/scenario"
	"detournet/internal/simproc"
	"detournet/internal/stats"
)

// Direction selects the transfer direction of a grid.
type Direction int

const (
	// Upload measures client -> provider (the paper's direction).
	Upload Direction = iota
	// Download measures provider -> client (the reverse operation the
	// APIs support; an extension experiment here).
	Download
)

func (d Direction) String() string {
	if d == Download {
		return "download"
	}
	return "upload"
}

// GridSpec describes one figure/table's measurement grid.
type GridSpec struct {
	Client   string
	Provider string
	Routes   []core.Route
	SizesMB  []int
	// Direction is Upload (default, the paper's) or Download.
	Direction Direction
	// Runs per cell (paper: 7) and how many of the last to keep (5).
	Runs, Keep int
	// Seed salts the generated files (cross-traffic is seeded by the
	// world, not here).
	Seed int64
}

// WithDefaults fills the paper's protocol values.
func (s GridSpec) WithDefaults() GridSpec {
	if len(s.Routes) == 0 {
		s.Routes = scenario.Routes()
	}
	if len(s.SizesMB) == 0 {
		s.SizesMB = fileutil.PaperSizesMB
	}
	if s.Runs == 0 {
		s.Runs = 7
	}
	if s.Keep == 0 {
		s.Keep = 5
	}
	return s
}

// Cell is one (size, route) measurement.
type Cell struct {
	SizeMB  int
	Route   core.Route
	Runs    []float64 // all run durations, in order
	Summary stats.Summary
	// Hop1/Hop2 are the mean leg times of the retained runs (detours
	// only; Hop1 is zero for direct).
	Hop1, Hop2 float64
}

// Grid is a completed measurement grid.
type Grid struct {
	Spec  GridSpec
	Cells []*Cell // ordered by (size, route) in spec order
}

// Cell returns the measurement for a size and route.
func (g *Grid) Cell(sizeMB int, route core.Route) *Cell {
	for _, c := range g.Cells {
		if c.SizeMB == sizeMB && c.Route == route {
			return c
		}
	}
	return nil
}

// RunGrid executes the grid in the world. Runs are sequential in
// simulated time, sharing the world's evolving cross-traffic exactly as
// the paper's back-to-back runs shared the live network. Every run uses
// fresh clients (new connections, new OAuth exchange), matching the
// per-invocation behaviour of the paper's Java programs. The grid ends
// the world: RunGrid closes it when the grid is done (its state stays
// readable), so each grid needs a freshly built world.
func RunGrid(w *scenario.World, spec GridSpec) *Grid {
	spec = spec.WithDefaults()
	g := &Grid{Spec: spec}
	defer w.Close()
	w.RunWorkload(fmt.Sprintf("grid:%s->%s", spec.Client, spec.Provider), func(p *simproc.Proc) {
		for _, mb := range spec.SizesMB {
			for _, route := range spec.Routes {
				cell := &Cell{SizeMB: mb, Route: route}
				var hop1s, hop2s []float64
				for run := 0; run < spec.Runs; run++ {
					f := fileutil.New(fmt.Sprintf("%s-%dMB-run%d.bin", spec.Provider, mb, run),
						float64(mb)*fileutil.MB, spec.Seed+int64(mb*100+run))
					rep := uploadOnce(p, w, spec, route, f)
					cell.Runs = append(cell.Runs, rep.Total)
					hop1s = append(hop1s, rep.Hop1)
					hop2s = append(hop2s, rep.Hop2)
				}
				cell.Summary = stats.LastN(cell.Runs, spec.Keep)
				cell.Hop1 = stats.LastN(hop1s, spec.Keep).Mean
				cell.Hop2 = stats.LastN(hop2s, spec.Keep).Mean
				g.Cells = append(g.Cells, cell)
			}
		}
	})
	return g
}

func uploadOnce(p *simproc.Proc, w *scenario.World, spec GridSpec, route core.Route, f fileutil.TestFile) core.Report {
	var rep core.Report
	var err error
	switch {
	case spec.Direction == Download:
		// Seed the provider store out-of-band (no wire time) so the
		// download is the only measured transfer.
		if _, perr := w.Services[spec.Provider].Store.Put(f.Name, f.Size, f.MD5); perr != nil {
			panic(fmt.Sprintf("measure: seed object: %v", perr))
		}
		if route.Kind == core.Direct {
			client := w.NewSDKClient(spec.Client, spec.Provider)
			rep, err = core.DirectDownload(p, client, f.Name)
			client.Close()
		} else {
			dc := w.NewDetourClient(spec.Client, route.Via)
			rep, err = dc.Download(p, spec.Provider, f.Name)
		}
	case route.Kind == core.Direct:
		client := w.NewSDKClient(spec.Client, spec.Provider)
		rep, err = core.DirectUpload(p, client, f.Name, f.Size, f.MD5)
		client.Close()
	default:
		dc := w.NewDetourClient(spec.Client, route.Via)
		rep, err = dc.Upload(p, spec.Provider, f.Name, f.Size, f.MD5)
	}
	if err != nil {
		panic(fmt.Sprintf("measure: %s %s %s %v: %v", spec.Client, spec.Direction, spec.Provider, route, err))
	}
	return rep
}

// FormatTable renders the grid the way Tables II/III print: one row per
// file size, direct seconds first, then each detour with its relative
// change in brackets.
func (g *Grid) FormatTable() string {
	var b strings.Builder
	routes := g.Spec.Routes
	fmt.Fprintf(&b, "%-10s", "Size(MB)")
	for _, r := range routes {
		fmt.Fprintf(&b, " | %-24s", r)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 10+27*len(routes)) + "\n")
	direct := routes[0]
	for _, mb := range g.Spec.SizesMB {
		fmt.Fprintf(&b, "%-10d", mb)
		base := g.Cell(mb, direct)
		for _, r := range routes {
			c := g.Cell(mb, r)
			if c == nil {
				fmt.Fprintf(&b, " | %-24s", "-")
				continue
			}
			if r == direct || base == nil {
				fmt.Fprintf(&b, " | %-24s", fmt.Sprintf("%.2f s", c.Summary.Mean))
			} else {
				pct := stats.RelativeChange(base.Summary.Mean, c.Summary.Mean)
				fmt.Fprintf(&b, " | %-24s", fmt.Sprintf("%.2f s [%s]", c.Summary.Mean, stats.FormatRelative(pct)))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFigure renders the grid as the data behind one of the paper's
// bar charts: per size, each route's mean ± one standard deviation.
func (g *Grid) FormatFigure(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, mb := range g.Spec.SizesMB {
		fmt.Fprintf(&b, "  %3d MB:", mb)
		for _, r := range g.Spec.Routes {
			c := g.Cell(mb, r)
			fmt.Fprintf(&b, "  %s=%.2f±%.2f", r, c.Summary.Mean, c.Summary.StdDev)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fastest returns the route with the lowest mean for a size.
func (g *Grid) Fastest(sizeMB int) core.Route {
	best := g.Spec.Routes[0]
	bestT := g.Cell(sizeMB, best).Summary.Mean
	for _, r := range g.Spec.Routes[1:] {
		if t := g.Cell(sizeMB, r).Summary.Mean; t < bestT {
			best, bestT = r, t
		}
	}
	return best
}

// Slowest returns the route with the highest mean for a size.
func (g *Grid) Slowest(sizeMB int) core.Route {
	worst := g.Spec.Routes[0]
	worstT := g.Cell(sizeMB, worst).Summary.Mean
	for _, r := range g.Spec.Routes[1:] {
		if t := g.Cell(sizeMB, r).Summary.Mean; t > worstT {
			worst, worstT = r, t
		}
	}
	return worst
}

// OverallFastest ranks routes by total mean time across all sizes — the
// aggregation behind Table I's "Fastest/Slowest" labels.
func (g *Grid) OverallFastest() (fastest, slowest core.Route) {
	totals := make(map[core.Route]float64)
	for _, r := range g.Spec.Routes {
		for _, mb := range g.Spec.SizesMB {
			totals[r] += g.Cell(mb, r).Summary.Mean
		}
	}
	fastest, slowest = g.Spec.Routes[0], g.Spec.Routes[0]
	for _, r := range g.Spec.Routes[1:] {
		if totals[r] < totals[fastest] {
			fastest = r
		}
		if totals[r] > totals[slowest] {
			slowest = r
		}
	}
	return fastest, slowest
}

// Exceptions lists sizes where the per-size fastest route differs from
// the overall fastest — the paper's Table I footnotes.
func (g *Grid) Exceptions() []int {
	overall, _ := g.OverallFastest()
	var out []int
	for _, mb := range g.Spec.SizesMB {
		if g.Fastest(mb) != overall {
			out = append(out, mb)
		}
	}
	return out
}
