package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"detournet/internal/fluid"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
	"detournet/internal/workload"
)

// fluid-stress spends most of its time in max-min reallocation, the
// first optimisation target; SetLinkLoad drives the same allocator
// through capacity changes rather than flow-set changes.
var fluidStressWorkload = &benchWorkload{
	name:          "fluid-stress",
	loop:          "closed: 300 flow clients, each starting its next flow when its previous one completes",
	size:          "900 completed flows per batch on the seed world's graph (lognormal sizes, 20 MB mean, caps 0.5-4.5 MB/s), one seed per batch",
	quickSize:     "120 completed flows from 40 clients per batch",
	seedsPerBatch: 1, quickSeedsPerBatch: 1,
	batchSeconds: 1.4,
	newRunner: func(quick bool) runner {
		if quick {
			return &fluidStress{clients: 40, flows: 120}
		}
		return &fluidStress{clients: 300, flows: 900}
	},
}

const (
	loadLinks     = 4    // links whose cross-traffic load the benchmark moves
	loadEvery     = 2.0  // virtual seconds between load changes
	maxLoad       = 0.5  // load draws are uniform in [0, maxLoad)
	oracleEvery   = 50   // allocations between max-min oracle checks
	conserveEvery = 50   // one flow in this many has its bytes integrated
	meanFlowBytes = 20e6 // lognormal mean; sigma 1
)

var (
	stressSources = append(append([]string{}, scenario.Clients...), scenario.DTNs...)
	stressSinks   = append([]string{scenario.GDriveDC, scenario.DropboxDC, scenario.OneDriveDC}, scenario.DTNs...)
)

type flowSpec struct {
	path      int
	size, cap float64
}

// fluidStress drives the seed world's fluid network directly, with no
// simulated processes: the benchmark starts flows, moves link loads and
// steps the engine itself.
type fluidStress struct {
	clients, flows int
	seed           int64
	w              *scenario.World
	paths          [][]*fluid.Link
	loaded         []*fluid.Link
	specs          []flowSpec
	rng            *rand.Rand

	ops              int
	durations        []float64
	bytes, span      float64
	events, reallocs uint64
	violations       []string
}

func (p *fluidStress) setup(seed int64, tr *tracer) {
	p.seed = seed
	p.w = scenario.Build(seed)
	// The benchmark's own load changes replace the world's cross-traffic,
	// so every reallocation follows a call the benchmark can observe.
	p.w.Cross.StopAll()
	p.w.Runner.Drive() // start the servers; their accept loops park
	p.paths = p.paths[:0]
	for _, src := range stressSources {
		for _, dst := range stressSinks {
			if src == dst {
				continue
			}
			t0 := tr.start()
			links, err := p.w.Graph.RoutedLinks(src, dst)
			tr.call("topology.routedlinks", t0)
			if err != nil {
				panic(fmt.Sprintf("route %s->%s: %v", src, dst, err))
			}
			p.paths = append(p.paths, links)
		}
	}
	p.loaded = busiestLinks(p.paths, loadLinks)
	p.rng = rand.New(rand.NewSource(seed))
	sizes := workload.Lognormal{MedianBytes: meanFlowBytes * math.Exp(-0.5), Sigma: 1}
	p.specs = p.specs[:0]
	for i := 0; i < p.flows+p.clients; i++ {
		p.specs = append(p.specs, flowSpec{
			path: i % len(p.paths),
			size: sizes.Sample(p.rng),
			cap:  0.5e6 + 4e6*p.rng.Float64(),
		})
	}
}

// busiestLinks returns the n links the most paths share, the narrowest
// first among equals: the same links on every seed, and ones whose load
// moves the allocation.
func busiestLinks(paths [][]*fluid.Link, n int) []*fluid.Link {
	count := map[*fluid.Link]int{}
	var links []*fluid.Link
	for _, path := range paths {
		for _, l := range path {
			if count[l] == 0 {
				links = append(links, l)
			}
			count[l]++
		}
	}
	sort.SliceStable(links, func(a, b int) bool {
		la, lb := links[a], links[b]
		if count[la] != count[lb] {
			return count[la] > count[lb]
		}
		if la.Capacity != lb.Capacity {
			return la.Capacity < lb.Capacity
		}
		return la.Name < lb.Name
	})
	return links[:n]
}

func (p *fluidStress) run(tr *tracer) int {
	fl, eng := p.w.Graph.Fluid(), p.w.Eng
	b := &stressBatch{p: p, tr: tr, fl: fl, eng: eng,
		active: map[*fluid.Flow]float64{}, tracked: map[*fluid.Flow]*conserved{}}
	ev0, ra0, v0 := eng.Processed(), fl.Reallocations, eng.Now()
	var tick func()
	tick = func() {
		for _, l := range p.loaded {
			t0 := tr.start()
			fl.SetLinkLoad(l, maxLoad*p.rng.Float64())
			tr.call("fluid.setload", t0)
		}
		b.settle()
		eng.After(loadEvery, tick)
	}
	eng.After(loadEvery, tick)
	for i := 0; i < p.clients; i++ {
		b.start()
	}
	if tr == nil {
		for b.done < p.flows && eng.Step() {
		}
	} else {
		for b.done < p.flows {
			t0 := time.Now()
			ok := eng.Step()
			tr.call("simclock.step", t0)
			if !ok {
				break
			}
		}
	}
	if b.done < p.flows {
		p.violations = append(p.violations, fmt.Sprintf("seed %d: engine ran dry after %d of %d flows", p.seed, b.done, p.flows))
	}
	p.ops += b.done
	p.span += float64(eng.Now() - v0)
	p.events += eng.Processed() - ev0
	p.reallocs += fl.Reallocations - ra0
	return b.done
}

// conserved integrates one flow's delivered bytes from its allocated
// rates, which change only at allocations the benchmark observes.
type conserved struct {
	delivered, rate float64
	last            simclock.Time
}

// stressBatch is one batch's closed loop.
type stressBatch struct {
	p             *fluidStress
	tr            *tracer
	fl            *fluid.Network
	eng           *simclock.Engine
	started, done int
	active        map[*fluid.Flow]float64 // size of each active flow
	tracked       map[*fluid.Flow]*conserved
	nextCheck     uint64
}

func (b *stressBatch) start() {
	if b.started == len(b.p.specs) {
		return
	}
	sp := b.p.specs[b.started]
	b.started++
	t0 := b.tr.start()
	f := b.fl.StartFlow(b.p.paths[sp.path], sp.size, fluid.FlowOpts{RateCap: sp.cap, OnComplete: b.complete})
	b.tr.call("fluid.startflow", t0)
	b.active[f] = sp.size
	if b.started%conserveEvery == 1 {
		b.tracked[f] = &conserved{last: b.eng.Now()}
	}
	b.settle()
}

func (b *stressBatch) complete(f *fluid.Flow) {
	size := b.active[f]
	delete(b.active, f)
	b.done++
	b.p.durations = append(b.p.durations, float64(f.FinishedAt()-f.StartedAt()))
	b.p.bytes += size
	b.settle()
	if c, ok := b.tracked[f]; ok {
		if math.Abs(c.delivered-size) > 1e-6*size+1 {
			b.p.violations = append(b.p.violations, fmt.Sprintf("seed %d: flow of %.0f bytes completed after delivering %.0f", b.p.seed, size, c.delivered))
		}
		delete(b.tracked, f)
	}
	b.start() // the client's next flow
}

// settle runs after every allocation change: tracked flows bank their
// bytes at the old rates, and every oracleEvery-th allocation is
// checked for max-min fairness.
func (b *stressBatch) settle() {
	now := b.eng.Now()
	for f, c := range b.tracked {
		c.delivered += c.rate * float64(now-c.last)
		c.last, c.rate = now, f.Rate()
	}
	if n := b.fl.Reallocations; n >= b.nextCheck {
		b.nextCheck = (n/oracleEvery + 1) * oracleEvery
		if err := b.checkAllocation(); err != nil {
			b.p.violations = append(b.p.violations, fmt.Sprintf("seed %d, allocation %d: %v", b.p.seed, n, err))
		}
	}
}

func (b *stressBatch) checkAllocation() error {
	index := map[*fluid.Link]int{}
	var avail []float64
	flows := make([]mmFlow, 0, len(b.active))
	for f := range b.active {
		mf := mmFlow{rate: f.Rate(), cap: f.Cap()}
		for _, l := range f.Path() {
			i, ok := index[l]
			if !ok {
				i = len(avail)
				index[l] = i
				avail = append(avail, l.Available())
			}
			mf.links = append(mf.links, i)
			if l.FlowCap > 0 && l.FlowCap < mf.cap {
				mf.cap = l.FlowCap
			}
		}
		flows = append(flows, mf)
	}
	return checkMaxMin(avail, flows)
}

// mmFlow is one flow of an allocation under test: its rate, its
// effective cap (math.Inf(1) when uncapped) and the links it crosses.
type mmFlow struct {
	rate, cap float64
	links     []int
}

// checkMaxMin is the max-min fairness oracle: no link carries more than
// it has available, and every flow either sits at its cap or crosses a
// saturated link on which no flow gets more than it does.
func checkMaxMin(avail []float64, flows []mmFlow) error {
	const tol = 1e-6
	used := make([]float64, len(avail))
	top := make([]float64, len(avail))
	for i, f := range flows {
		if f.rate < 0 || math.IsNaN(f.rate) {
			return fmt.Errorf("flow %d has rate %v", i, f.rate)
		}
		for _, l := range f.links {
			used[l] += f.rate
			top[l] = math.Max(top[l], f.rate)
		}
	}
	for l, a := range avail {
		if used[l] > a*(1+tol)+tol {
			return fmt.Errorf("link %d carries %.6g B/s of its %.6g available", l, used[l], a)
		}
	}
	for i, f := range flows {
		if f.rate >= f.cap*(1-tol) {
			continue
		}
		bottlenecked := false
		for _, l := range f.links {
			if used[l] >= avail[l]*(1-tol) && f.rate >= top[l]*(1-tol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d at %.6g B/s is below its cap %.6g with no bottleneck link", i, f.rate, f.cap)
		}
	}
	return nil
}

func (p *fluidStress) report(add func(string, metric)) []string {
	// Flows still running when a batch ends are neither done nor failed;
	// the fluid model has no failure path for an uncancelled flow.
	add("success_frac", pooled(1, p.ops))
	percentiles(add, "transfer_s", p.durations)
	add("goodput_mbps", pooled(p.bytes/p.span/1e6, p.ops))
	add("fluid.reallocs_per_op", pooled(float64(p.reallocs)/float64(p.ops), p.ops))
	add("simclock.events_per_op", pooled(float64(p.events)/float64(p.ops), p.ops))
	return p.violations
}
