package main

import (
	"fmt"
	"math"

	"detournet/internal/core"
	"detournet/internal/experiments"
	"detournet/internal/measure"
	"detournet/internal/scenario"
)

// paper-grid is the paper's own evaluation: tcpmodel->fluid SetFlowCap
// churn on tiny flow sets plus transport, httpsim, sdk, cloudsim and
// rsyncx, and no sched.
var paperGridWorkload = &benchWorkload{
	name:          "paper-grid",
	loop:          "closed, one sequential caller",
	size:          "9 client x provider pairs at the paper protocol (7 sizes x 3 routes x 7 runs = 1323 transfers), one seed per batch",
	quickSize:     "9 pairs at the quick protocol (3 sizes x 3 routes x 3 runs), one seed per batch",
	seedsPerBatch: 1, quickSeedsPerBatch: 1,
	batchSeconds: 1.2,
	newRunner: func(quick bool) runner {
		if quick {
			return &paperGrid{proto: experiments.Quick()}
		}
		return &paperGrid{proto: experiments.Default(), golden: true}
	},
}

// goldenMeans are TestGoldenNumbers' paper-protocol means at seed 2015
// (internal/experiments/golden_test.go), in seconds.
var goldenMeans = []struct {
	client, provider string
	route            core.Route
	sizeMB           int
	want             float64
}{
	{scenario.UBC, scenario.GoogleDrive, core.DirectRoute, 100, 87.26},
	{scenario.UBC, scenario.GoogleDrive, core.ViaRoute(scenario.UAlberta), 100, 38.28},
	{scenario.UBC, scenario.GoogleDrive, core.ViaRoute(scenario.UMich), 100, 122.64},
	{scenario.UBC, scenario.GoogleDrive, core.DirectRoute, 10, 8.82},
	{scenario.UBC, scenario.GoogleDrive, core.ViaRoute(scenario.UAlberta), 10, 4.05},
	{scenario.Purdue, scenario.GoogleDrive, core.DirectRoute, 100, 823.00},
	{scenario.Purdue, scenario.GoogleDrive, core.ViaRoute(scenario.UAlberta), 100, 200.34},
	{scenario.Purdue, scenario.GoogleDrive, core.ViaRoute(scenario.UMich), 100, 194.46},
	{scenario.Purdue, scenario.Dropbox, core.DirectRoute, 100, 181.96},
	{scenario.Purdue, scenario.Dropbox, core.ViaRoute(scenario.UAlberta), 100, 264.84},
	{scenario.Purdue, scenario.OneDrive, core.DirectRoute, 100, 304.90},
	{scenario.Purdue, scenario.OneDrive, core.ViaRoute(scenario.UAlberta), 100, 206.86},
	{scenario.UCLA, scenario.GoogleDrive, core.DirectRoute, 100, 267.85},
}

const goldenSeed = 2015

// pairSeed is experiments.RunPair's per-pair world seed. The benchmark
// builds the worlds itself so that world construction is set-up, not
// measured work; the seed-2015 golden check pins the two together.
func pairSeed(seed int64, client, provider string) int64 {
	h := int64(17)
	for _, s := range []string{client, provider} {
		for _, c := range s {
			h = h*131 + int64(c)
		}
	}
	return seed*1000003 + h
}

type pairWorld struct {
	client, provider string
	w                *scenario.World
}

// paperGrid runs experiments.RunPair's measurement for every pair: the
// worlds are built in setup, the grids measured in run.
type paperGrid struct {
	proto  experiments.Options
	golden bool // the paper protocol, so seed 2015 must reproduce goldenMeans
	seed   int64
	worlds []pairWorld

	ops                int
	t100               []float64 // every 100 MB transfer, seconds
	logSpeedup         []float64 // per (pair, seed): log(direct / fastest route)
	hop1, hop2, direct []float64 // 100 MB cell means
	events, reallocs   uint64
	violations         []string
}

func (p *paperGrid) setup(seed int64, _ *tracer) {
	p.seed = seed
	p.worlds = p.worlds[:0]
	for _, c := range scenario.Clients {
		for _, pr := range scenario.ProviderNames {
			p.worlds = append(p.worlds, pairWorld{c, pr, scenario.Build(pairSeed(seed, c, pr))})
		}
	}
}

func (p *paperGrid) run(tr *tracer) int {
	before := p.ops
	for _, pw := range p.worlds {
		t0 := tr.start()
		g := measure.RunGrid(pw.w, measure.GridSpec{
			Client: pw.client, Provider: pw.provider,
			SizesMB: p.proto.SizesMB, Runs: p.proto.Runs, Keep: p.proto.Keep,
			Seed: p.seed,
		})
		tr.call("measure.grid", t0)
		p.events += pw.w.Eng.Processed()
		p.reallocs += pw.w.Graph.Fluid().Reallocations
		p.collect(pw, g)
	}
	return p.ops - before
}

func (p *paperGrid) collect(pw pairWorld, g *measure.Grid) {
	for _, c := range g.Cells {
		p.ops += len(c.Runs)
	}
	direct := g.Cell(100, core.DirectRoute)
	fastest := math.Inf(1)
	for _, r := range g.Spec.Routes {
		c := g.Cell(100, r)
		p.t100 = append(p.t100, c.Runs...)
		fastest = math.Min(fastest, c.Summary.Mean)
		if r.Kind == core.Detour {
			p.hop1 = append(p.hop1, c.Hop1)
			p.hop2 = append(p.hop2, c.Hop2)
		}
	}
	p.direct = append(p.direct, direct.Summary.Mean)
	p.logSpeedup = append(p.logSpeedup, math.Log(direct.Summary.Mean/fastest))

	if pw.client == scenario.UBC && pw.provider == scenario.GoogleDrive {
		if ualb := g.Cell(100, core.ViaRoute(scenario.UAlberta)).Summary.Mean; ualb >= direct.Summary.Mean {
			p.violations = append(p.violations, fmt.Sprintf("seed %d: UBC->GoogleDrive 100 MB via UAlberta %.2f s is not faster than direct %.2f s", p.seed, ualb, direct.Summary.Mean))
		}
	}
	if !p.golden || p.seed != goldenSeed {
		return
	}
	for _, gm := range goldenMeans {
		if gm.client != pw.client || gm.provider != pw.provider {
			continue
		}
		if got := g.Cell(gm.sizeMB, gm.route).Summary.Mean; math.Abs(got-gm.want)/gm.want > 0.01 {
			p.violations = append(p.violations, fmt.Sprintf("seed %d: %s->%s %v %d MB mean %.2f s, golden %.2f s (±1%%)", p.seed, gm.client, gm.provider, gm.route, gm.sizeMB, got, gm.want))
		}
	}
}

func (p *paperGrid) report(add func(string, metric)) []string {
	// Every transfer that RunGrid attempts completes: a failed upload
	// panics inside measure, taking the run down.
	add("success_frac", pooled(1, p.ops))
	percentiles(add, "transfer_s", p.t100)
	add("detour_speedup", pooled(math.Exp(mean(p.logSpeedup)), len(p.logSpeedup)))
	h1, h2 := mean(p.hop1), mean(p.hop2)
	add("core.hop1_s_100mb", pooled(h1, len(p.hop1)))
	add("core.hop2_s_100mb", pooled(h2, len(p.hop2)))
	add("core.hop1_share", pooled(h1/(h1+h2), len(p.hop1)))
	add("core.direct_s_100mb", pooled(mean(p.direct), len(p.direct)))
	add("fluid.reallocs_per_op", pooled(float64(p.reallocs)/float64(p.ops), p.ops))
	add("simclock.events_per_op", pooled(float64(p.events)/float64(p.ops), p.ops))
	return p.violations
}
