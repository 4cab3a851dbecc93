// Package detourselect implements the automatic detour selection the
// paper identifies as open work ("we have not implemented an automatic
// detour selection algorithm", Sec III-B): given a client, a provider,
// and candidate DTNs, pick the route expected to move a file of a given
// size fastest.
//
// Two strategies are provided. The probe Selector measures each
// candidate path with a small transfer and extrapolates with the TCP
// transfer-time model — capturing the paper's observation that the best
// route depends on client, provider, *and* file size. The Bandit keeps
// running throughput estimates for repeated transfers and elects the
// fastest route as they change, the natural fit for the paper's
// "monitor and bypass dynamic bottlenecks" future work.
package detourselect

import (
	"fmt"
	"math"
	"sort"

	"detournet/internal/core"
	"detournet/internal/sdk"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
)

// Prediction is one route's estimated transfer time.
type Prediction struct {
	Route   core.Route
	Seconds float64
	// Hop1/Hop2 are the per-leg estimates (Hop1 zero for direct).
	Hop1, Hop2 float64
}

// Selector chooses routes by active probing.
type Selector struct {
	// ProbeBytes sizes the probe transfers; default 2 MiB — big enough
	// to ride past slow start, small enough to be cheap.
	ProbeBytes float64
	// Params is the TCP model used for extrapolation.
	Params tcpmodel.Params
}

// NewSelector returns a selector with defaults.
func NewSelector() *Selector {
	return &Selector{ProbeBytes: 2 << 20, Params: tcpmodel.Params{}.WithDefaults()}
}

// rateFromProbe converts a probe duration into an estimated steady
// throughput by stripping the model's fixed costs.
func (s *Selector) rateFromProbe(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return math.Inf(1)
	}
	return bytes / seconds
}

// Choose probes the direct route and every candidate detour, then
// returns the route with the lowest predicted time for size bytes,
// alongside every prediction sorted fastest-first.
func (s *Selector) Choose(p *simproc.Proc, direct sdk.Client, detours map[string]*core.DetourClient,
	provider string, size float64) (core.Route, []Prediction, error) {
	if size <= 0 {
		return core.Route{}, nil, fmt.Errorf("detourselect: non-positive size")
	}
	probeB := s.ProbeBytes
	if probeB <= 0 {
		probeB = 2 << 20
	}
	var preds []Prediction

	// Direct probe: one small upload, extrapolated linearly.
	probeName := ".probe-direct"
	t0 := p.Now()
	if _, err := direct.Upload(p, probeName, probeB, ""); err != nil {
		return core.Route{}, nil, fmt.Errorf("detourselect: direct probe: %w", err)
	}
	directDur := float64(p.Now() - t0)
	_ = direct.Delete(p, probeName)
	directRate := s.rateFromProbe(probeB, directDur)
	preds = append(preds, Prediction{
		Route:   core.DirectRoute,
		Seconds: size / directRate,
		Hop2:    size / directRate,
	})

	// Detour probes: hop1 (rsync) and hop2 (agent-side upload), summed —
	// the store-and-forward model where leg times add.
	names := make([]string, 0, len(detours))
	for via := range detours {
		names = append(names, via)
	}
	sort.Strings(names)
	for _, via := range names {
		dc := detours[via]
		h1, err := dc.ProbeHop1(p, probeB)
		if err != nil {
			return core.Route{}, nil, fmt.Errorf("detourselect: hop1 probe via %s: %w", via, err)
		}
		h2, err := dc.ProbeHop2(p, provider, probeB)
		if err != nil {
			return core.Route{}, nil, fmt.Errorf("detourselect: hop2 probe via %s: %w", via, err)
		}
		e1 := size / s.rateFromProbe(probeB, h1)
		e2 := size / s.rateFromProbe(probeB, h2)
		preds = append(preds, Prediction{
			Route:   core.ViaRoute(via),
			Seconds: e1 + e2,
			Hop1:    e1,
			Hop2:    e2,
		})
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].Seconds < preds[j].Seconds })
	return preds[0].Route, preds, nil
}

// Bandit is an online route selector for repeated transfers to one
// provider: completed transfers feed per-route throughput estimates,
// and Best elects the historically fastest route, so the choice moves
// when a bottleneck appears or clears.
type Bandit struct {
	// Weight, when non-nil, scales a route's score during selection —
	// the hook the health layer uses to down-weight routes on probation
	// (a sustained gray-failure outlier) without hard-excluding them.
	// Healthy routes return 1; probation routes a small fraction. The
	// raw throughput estimate is untouched, so a route that recovers is
	// immediately competitive again.
	Weight func(core.Route) float64

	routes []core.Route
	// Per-route exponentially weighted mean throughput (bytes/sec).
	ewma  map[core.Route]float64
	seen  map[core.Route]int
	alpha float64
}

// NewBandit returns a selector over the given routes. Election is by
// Best, so the bandit draws no randomness. It adds no locking.
func NewBandit(routes []core.Route) *Bandit {
	if len(routes) == 0 {
		panic("detourselect: bandit needs routes")
	}
	return &Bandit{
		routes: append([]core.Route(nil), routes...),
		ewma:   make(map[core.Route]float64),
		seen:   make(map[core.Route]int),
		alpha:  0.3,
	}
}

// Best returns the route with the highest health-weighted observed
// throughput.
func (b *Bandit) Best() core.Route {
	best := b.routes[0]
	for _, r := range b.routes[1:] {
		if b.Score(r) > b.Score(best) {
			best = r
		}
	}
	return best
}

// Score is the health-weighted throughput estimate selection ranks by:
// Throughput(route) times the Weight hook (1 when no hook is set).
func (b *Bandit) Score(route core.Route) float64 {
	s := b.ewma[route]
	if b.Weight != nil {
		s *= b.Weight(route)
	}
	return s
}

// Observe records a completed transfer's outcome.
func (b *Bandit) Observe(route core.Route, sizeBytes, seconds float64) {
	if seconds <= 0 {
		return
	}
	rate := sizeBytes / seconds
	if b.seen[route] == 0 {
		b.ewma[route] = rate
	} else {
		b.ewma[route] = b.alpha*rate + (1-b.alpha)*b.ewma[route]
	}
	b.seen[route]++
}

// Throughput reports the current estimate for a route (0 if unobserved).
func (b *Bandit) Throughput(route core.Route) float64 { return b.ewma[route] }
