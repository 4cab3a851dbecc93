// Package report renders a complete reproduction report — every table,
// figure series, traceroute, and study — as a single markdown
// document. `detourbench -experiment report` writes it to stdout; the
// committed EXPERIMENTS.md is the hand-annotated version of this
// output.
package report

import (
	"fmt"
	"io"
	"strings"

	"detournet/internal/core"
	"detournet/internal/experiments"
	"detournet/internal/scenario"
)

// Config sets how the report is measured.
type Config struct {
	// Options is the measurement protocol.
	Options experiments.Options
}

// Write renders the report to w.
func Write(w io.Writer, cfg Config) error {
	r := &renderer{w: w, suite: &experiments.Suite{Options: cfg.Options}}
	r.header(cfg)
	r.headline()
	r.figures()
	r.tables()
	r.traceroutes()
	r.geography()
	r.studies(cfg)
	return r.err
}

type renderer struct {
	w     io.Writer
	suite *experiments.Suite
	err   error
}

func (r *renderer) printf(format string, args ...any) {
	if r.err != nil {
		return
	}
	_, r.err = fmt.Fprintf(r.w, format, args...)
}

func (r *renderer) section(title string) {
	r.printf("\n## %s\n\n", title)
}

func (r *renderer) code(body string) {
	r.printf("```\n%s```\n", ensureNL(body))
}

func ensureNL(s string) string {
	if !strings.HasSuffix(s, "\n") {
		return s + "\n"
	}
	return s
}

func (r *renderer) header(cfg Config) {
	r.printf("# detournet reproduction report\n\n")
	r.printf("Seed %d, %d runs per cell (mean of last %d), sizes %v MB.\n",
		cfg.Options.Seed, cfg.Options.Runs, cfg.Options.Keep, cfg.Options.SizesMB)
	r.printf("All values are virtual-time seconds in the simulated WAN; see DESIGN.md.\n")
}

func (r *renderer) headline() {
	r.section("Headline (paper Sec I)")
	g := r.suite.Pair(scenario.UBC, scenario.GoogleDrive).Grid
	direct := g.Cell(100, core.DirectRoute)
	det := g.Cell(100, core.ViaRoute(scenario.UAlberta))
	if direct == nil || det == nil {
		r.printf("(100 MB cell not measured at these options)\n")
		return
	}
	r.printf("UBC -> Google Drive, 100 MB: direct %.1f s, via UAlberta %.1f s "+
		"(rsync %.1f s + upload %.1f s) — %.1fx faster despite the geographic detour.\n",
		direct.Summary.Mean, det.Summary.Mean, det.Hop1, det.Hop2,
		direct.Summary.Mean/det.Summary.Mean)
}

func (r *renderer) figures() {
	r.section("Figures 2, 4, 7-11 (upload grids)")
	for _, fig := range []struct {
		render func() string
	}{
		{r.suite.Fig2}, {r.suite.Fig4}, {r.suite.Fig7},
		{r.suite.Fig8}, {r.suite.Fig9}, {r.suite.Fig10}, {r.suite.Fig11},
	} {
		r.code(fig.render())
		r.printf("\n")
	}
}

func (r *renderer) tables() {
	r.section("Tables I-IV")
	for _, t := range []func() string{
		r.suite.TableI, r.suite.TableII, r.suite.TableIII, r.suite.TableIV,
	} {
		r.code(t())
		r.printf("\n")
	}
}

func (r *renderer) traceroutes() {
	r.section("Figures 5-6 (traceroutes)")
	r.code(r.suite.Fig5())
	r.printf("\n")
	r.code(r.suite.Fig6())
}

func (r *renderer) geography() {
	r.section("Figure 3 / Table V (geography)")
	r.code(r.suite.Fig3())
	r.printf("\n")
	r.code(r.suite.TableV())
}

// studies embeds experiments.WriteStudies, the output of
// `detourbench -experiment studies`.
func (r *renderer) studies(cfg Config) {
	r.section("Ablation and extension studies")
	if r.err != nil {
		return
	}
	var b strings.Builder
	if r.err = experiments.WriteStudies(&b, cfg.Options); r.err == nil {
		r.code(b.String())
	}
}
