// Package telemetry is the observability plane for the detour stack: a
// metrics registry with typed, labeled counter/gauge/histogram families;
// a simclock-driven time-series sampler feeding bounded ring buffers; and
// a per-job flight recorder that keeps the full decision trace of failed
// transfers. Everything is deterministic under the repo's simulation
// contract — snapshot iteration orders are sorted, floats format via
// strconv with the shortest round-trip representation, and the sampler
// ticks on the virtual clock — so same-seed runs dump byte-identical
// telemetry.
//
// Hot-path cost is a single atomic op per observation: families hand out
// child metrics once (callers cache the handle) and the child's Add/Set/
// Observe touch only atomics. Every exported method is nil-safe on a nil
// receiver, mirroring tracelog: instrumented code never guards against a
// disabled registry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType discriminates the three family kinds in snapshots.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// labelSep joins label values into a child key. 0xff cannot appear in
// the label values we use (route names, DTN hostnames), so the join is
// collision-free.
const labelSep = "\xff"

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is safe: every method returns a nil
// family whose methods are in turn no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Family is one named metric family: a type, a help string, a label
// schema, and a set of children keyed by label values. Families with no
// labels have a single child with an empty key.
type Family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	hopts  HistOpts

	mu       sync.Mutex
	children map[string]*Metric
}

// Metric is a single labeled child. Counters and gauges store a float64
// as atomic bits; histograms add per-bucket atomic counts. All methods
// are nil-safe.
type Metric struct {
	fam    *Family
	values []string

	bits atomic.Uint64 // counter/gauge value as math.Float64bits

	// histogram state (nil for counters/gauges)
	bounds []float64 // upper bounds; len(buckets)-1 entries, last bucket is +Inf
	counts []atomic.Uint64
	sumBit atomic.Uint64
	count  atomic.Uint64
}

func (r *Registry) family(name, help string, typ MetricType, labels []string, hopts HistOpts) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: family %q re-registered with different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: family %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &Family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		hopts:    hopts,
		children: make(map[string]*Metric),
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) a counter family. With no labels the
// returned family's With() yields the single child.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.family(name, help, TypeCounter, labels, HistOpts{})
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.family(name, help, TypeGauge, labels, HistOpts{})
}

// Histogram registers (or fetches) a log-bucketed histogram family.
func (r *Registry) Histogram(name, help string, opts HistOpts, labels ...string) *Family {
	return r.family(name, help, TypeHistogram, labels, opts.withDefaults())
}

// With returns the child metric for the given label values, creating it
// on first use. The number of values must match the family's label
// schema. Callers on hot paths should cache the returned handle.
func (f *Family) With(values ...string) *Metric {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: family %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := &Metric{fam: f, values: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		m.bounds = f.hopts.bounds()
		m.counts = make([]atomic.Uint64, len(m.bounds)+1)
	}
	f.children[key] = m
	return m
}

// Get returns the child metric for the given label values if it exists,
// and nil otherwise — a read that, unlike With, never creates a child
// (and so never adds a zero-valued line to a snapshot). A nil *Metric
// reads as 0.
func (f *Family) Get(values ...string) *Metric {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.children[strings.Join(values, labelSep)]
}

// Add increments a counter or gauge by v. Counters reject negative
// deltas (silently dropped — the hot path carries no error return).
func (m *Metric) Add(v float64) {
	if m == nil {
		return
	}
	if m.fam.typ == TypeCounter && v < 0 {
		return
	}
	for {
		old := m.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if m.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (m *Metric) Inc() { m.Add(1) }

// Set replaces a gauge's value. No-op on counters and histograms.
func (m *Metric) Set(v float64) {
	if m == nil || m.fam.typ != TypeGauge {
		return
	}
	m.bits.Store(math.Float64bits(v))
}

// Value reads the current counter/gauge value.
func (m *Metric) Value() float64 {
	if m == nil {
		return 0
	}
	return math.Float64frombits(m.bits.Load())
}

// Observe records v into a histogram. No-op on counters and gauges.
func (m *Metric) Observe(v float64) {
	if m == nil || m.counts == nil {
		return
	}
	m.counts[bucketFor(m.bounds, v)].Add(1)
	m.count.Add(1)
	for {
		old := m.sumBit.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if m.sumBit.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Snapshot captures the whole registry in deterministic order: families
// sorted by name, children sorted by their label-value key.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*Family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		snap.Families = append(snap.Families, f.Snapshot())
	}
	return snap
}

// Snapshot captures one family, children sorted by their label-value
// key.
func (f *Family) Snapshot() FamilySnapshot {
	if f == nil {
		return FamilySnapshot{}
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Metric, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	f.mu.Unlock()

	fs := FamilySnapshot{
		Name:   f.name,
		Help:   f.help,
		Type:   f.typ,
		Labels: append([]string(nil), f.labels...),
	}
	for _, m := range kids {
		ms := MetricSnapshot{LabelValues: append([]string(nil), m.values...)}
		if f.typ == TypeHistogram {
			h := &HistSnapshot{
				Bounds: append([]float64(nil), m.bounds...),
				Counts: make([]uint64, len(m.counts)),
				Count:  m.count.Load(),
				Sum:    math.Float64frombits(m.sumBit.Load()),
			}
			for i := range m.counts {
				h.Counts[i] = m.counts[i].Load()
			}
			ms.Hist = h
		} else {
			ms.Value = m.Value()
		}
		fs.Metrics = append(fs.Metrics, ms)
	}
	return fs
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one family's copy.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Type    MetricType       `json:"type"`
	Labels  []string         `json:"labels,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one child's copy.
type MetricSnapshot struct {
	LabelValues []string      `json:"label_values,omitempty"`
	Value       float64       `json:"value,omitempty"`
	Hist        *HistSnapshot `json:"histogram,omitempty"`
}
