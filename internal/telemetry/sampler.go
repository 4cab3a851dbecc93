package telemetry

import (
	"math"
	"sort"
	"sync"

	"detournet/internal/simclock"
)

// Series is a bounded ring buffer of (time, value) samples. Once full,
// new samples overwrite the oldest and Dropped counts the evictions.
type Series struct {
	capacity int
	times    []float64
	values   []float64
	start    int
	n        int
	dropped  int
}

func newSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 256
	}
	return &Series{
		capacity: capacity,
		times:    make([]float64, capacity),
		values:   make([]float64, capacity),
	}
}

func (s *Series) push(t, v float64) {
	if s.n < s.capacity {
		idx := (s.start + s.n) % s.capacity
		s.times[idx], s.values[idx] = t, v
		s.n++
		return
	}
	s.times[s.start], s.values[s.start] = t, v
	s.start = (s.start + 1) % s.capacity
	s.dropped++
}

func (s *Series) snapshot(name string) SeriesSnapshot {
	out := SeriesSnapshot{
		Name:    name,
		Times:   make([]float64, s.n),
		Values:  make([]float64, s.n),
		Dropped: s.dropped,
	}
	for i := 0; i < s.n; i++ {
		idx := (s.start + i) % s.capacity
		out.Times[i] = s.times[idx]
		out.Values[i] = s.values[idx]
	}
	return out
}

// SeriesSnapshot is an ordered copy of one ring buffer.
type SeriesSnapshot struct {
	Name    string    `json:"name"`
	Times   []float64 `json:"times"`
	Values  []float64 `json:"values"`
	Dropped int       `json:"dropped,omitempty"`
}

// Last returns the most recent value (0 when empty).
func (s SeriesSnapshot) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Min and Max scan the retained window (0 when empty).
func (s SeriesSnapshot) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		m = math.Min(m, v)
	}
	return m
}

func (s SeriesSnapshot) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		m = math.Max(m, v)
	}
	return m
}

// Sampler polls a set of named probes on a fixed virtual-time grid and
// records each into its own ring buffer. It implements the scenario
// Pauser contract (Restart/StopAll) so its self-rescheduling tick never
// keeps the event queue from draining between workloads: ticks only run
// while a workload is being driven, exactly like cross-traffic.
//
// Ticks land on multiples of the interval ((floor(now/interval)+1) *
// interval), so sample times — and therefore dumps — are identical
// across same-seed runs regardless of when sampling (re)starts.
type Sampler struct {
	eng      *simclock.Engine
	interval float64
	capacity int

	mu       sync.Mutex
	names    []string // sorted; probe iteration order
	probes   map[string]func() float64
	series   map[string]*Series
	tick     *simclock.Event
	owed     simclock.Time // time of the tick StopAll cancelled; 0: none (no tick is at 0)
	samples  int
	onSample func(t float64)
}

// NewSampler builds a sampler polling every interval virtual seconds,
// keeping up to capacity samples per series.
func NewSampler(eng *simclock.Engine, interval float64, capacity int) *Sampler {
	if interval <= 0 {
		interval = 5
	}
	return &Sampler{
		eng:      eng,
		interval: interval,
		capacity: capacity,
		probes:   make(map[string]func() float64),
		series:   make(map[string]*Series),
	}
}

// Track registers a probe under name. Probes run in sorted-name order on
// every tick; they must be cheap and must not advance virtual time.
// Re-tracking a name replaces its probe but keeps the series.
func (s *Sampler) Track(name string, probe func() float64) {
	if s == nil || probe == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.probes[name]; !ok {
		s.names = append(s.names, name)
		sort.Strings(s.names)
		s.series[name] = newSeries(s.capacity)
	}
	s.probes[name] = probe
}

// OnSample registers a callback invoked after each tick's probes have
// been recorded, with the tick's virtual time. Used for periodic dumps.
func (s *Sampler) OnSample(fn func(t float64)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onSample = fn
	s.mu.Unlock()
}

// Interval returns the sampling interval in virtual seconds.
func (s *Sampler) Interval() float64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Samples returns the number of ticks recorded so far.
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// Restart (Pauser) schedules the next grid-aligned tick. Idempotent.
// A Restart at the time of the tick StopAll cancelled schedules that
// tick, so a workload ending exactly on a grid time loses no sample.
func (s *Sampler) Restart() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tick == nil && s.owed > 0 && s.owed == s.eng.Now() {
		s.tick = s.eng.Schedule(s.owed, s.run)
	} else {
		s.scheduleLocked()
	}
	s.owed = 0
}

// StopAll (Pauser) cancels the pending tick so the engine can drain.
func (s *Sampler) StopAll() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tick != nil {
		s.owed = s.tick.At()
		s.eng.Cancel(s.tick)
		s.tick = nil
	}
}

func (s *Sampler) scheduleLocked() {
	if s.tick != nil {
		s.eng.Cancel(s.tick)
	}
	now := float64(s.eng.Now())
	next := (math.Floor(now/s.interval) + 1) * s.interval
	s.tick = s.eng.Schedule(simclock.Time(next), s.run)
}

func (s *Sampler) run() {
	s.mu.Lock()
	t := float64(s.eng.Now())
	for _, name := range s.names {
		s.series[name].push(t, s.probes[name]())
	}
	s.samples++
	cb := s.onSample
	s.scheduleLocked()
	s.mu.Unlock()
	if cb != nil {
		cb(t)
	}
}

// Snapshot copies every series, sorted by name.
func (s *Sampler) Snapshot() []SeriesSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.series[name].snapshot(name))
	}
	return out
}
