package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"detournet/internal/core"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// dispatch is pure control-plane cost (queue, caps, route cache, retry,
// telemetry) with no fluid or simclock, so every simulator optimisation
// predicts no change on it.
var dispatchWorkload = &benchWorkload{
	name:          "dispatch",
	loop:          "closed batch: the whole trace is queued, then two workers drain it",
	size:          "100000 jobs per batch (3 clients x 3 providers, PersonalCloud sizes, 3 priorities), instant executor failing 5% of attempts",
	quickSize:     "5000 jobs per batch",
	seedsPerBatch: 1, quickSeedsPerBatch: 1,
	batchSeconds: 0.2,
	newRunner: func(quick bool) runner {
		if quick {
			return &dispatch{jobs: 5000}
		}
		return &dispatch{jobs: 25000}
	},
}

const (
	dispatchWorkers  = 2
	dispatchAttempts = 3 // sched's default MaxAttempts
	failPercent      = 5 // of (job, attempt) pairs
)

var errInjected = errors.New("injected dispatch failure")

// attemptFails is the executor's seeded failure draw for one attempt of
// one job: a hash, so outcomes do not depend on worker interleaving.
// FNV-1a alone leaves the draws of one job's attempts correlated (their
// keys differ only in the last byte), so a splitmix64 finalizer mixes it.
func attemptFails(seed int64, job string, attempt int32) bool {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(seed, 10) + "|" + job + "|" + strconv.Itoa(int(attempt))))
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return x%100 < failPercent
}

// dispatch drives sched.New with an executor that returns at once.
type dispatch struct {
	jobs     int
	seed     int64
	batch    []sched.Job
	index    map[string]int
	wantFail int
	// tried and results count each job's executions and terminal results.
	tried, results []atomic.Int32

	ops, failed, attempts int
	plans                 int64
	cacheHits, cacheMiss  int64
	violations            []string
}

func (d *dispatch) setup(seed int64, _ *tracer) {
	d.seed = seed
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:      d.jobs,
		Clients:   []string{scenario.UBC, scenario.Purdue, scenario.UCLA},
		Providers: scenario.ProviderNames,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	d.batch = d.batch[:0]
	d.index = make(map[string]int, len(trace))
	d.wantFail = 0
	d.tried = make([]atomic.Int32, len(trace))
	d.results = make([]atomic.Int32, len(trace))
	for i, fj := range trace {
		d.batch = append(d.batch, sched.Job{Tenant: fj.Tenant, Client: fj.Client, Provider: fj.Provider, Name: fj.Name, Size: fj.Size, Priority: fj.Priority})
		d.index[fj.Name] = i
		fails := true
		for a := int32(1); a <= dispatchAttempts && fails; a++ {
			fails = attemptFails(seed, fj.Name, a)
		}
		if fails {
			d.wantFail++
		}
	}
}

func (d *dispatch) run(tr *tracer) int {
	n := len(d.batch)
	var failed, other, attempts atomic.Int64
	var plans, execNs, planNs atomic.Int64

	exec := sched.ExecutorFunc(func(j sched.Job, r core.Route) (float64, error) {
		t0 := tr.start()
		var err error
		if attemptFails(d.seed, j.Name, d.tried[d.index[j.Name]].Add(1)) {
			err = sched.Transient(errInjected)
		}
		if tr != nil {
			execNs.Add(int64(time.Since(t0)))
		}
		return j.Size / 10e6, err
	})
	plan := sched.PlannerFunc(func(client, provider string, size float64) (core.Route, []core.Route, error) {
		t0 := tr.start()
		plans.Add(1)
		if tr != nil {
			planNs.Add(int64(time.Since(t0)))
		}
		return core.ViaRoute(scenario.UAlberta), scenario.Routes(), nil
	})
	s := sched.New(sched.Config{
		Workers:  dispatchWorkers,
		Executor: exec, Planner: plan,
		Telemetry: telemetry.NewRegistry(),
		Recorder:  telemetry.NewFlightRecorder(nil, 32, 4),
		Sleep:     func(float64) {}, // backoff costs no wall time here
		OnResult: func(r sched.Result) {
			d.results[d.index[r.Job.Name]].Add(1)
			attempts.Add(int64(r.Attempts))
			if r.Err != nil {
				failed.Add(1)
				if !errors.Is(r.Err, errInjected) {
					other.Add(1)
				}
			}
		},
	})
	// The whole trace is queued before the workers start, so the
	// allocation and memory of a batch do not depend on how far the
	// producer runs ahead of two workers on two cores.
	t0 := tr.start()
	for _, j := range d.batch {
		t1 := tr.start()
		err := s.Submit(j)
		tr.call("sched.submit", t1)
		if err != nil {
			d.violations = append(d.violations, fmt.Sprintf("seed %d: submit %s: %v", d.seed, j.Name, err))
		}
	}
	s.Start()
	s.Drain()
	s.Close()
	if tr != nil {
		shims := time.Duration(execNs.Load() + planNs.Load())
		tr.set("sched.self_us_per_job", float64(time.Since(t0)-shims)/1e3/float64(n))
		tr.set("sched.exec_us_per_job", float64(execNs.Load())/1e3/float64(n))
	}

	for i, j := range d.batch {
		if c := d.results[i].Load(); c != 1 {
			d.violations = append(d.violations, fmt.Sprintf("seed %d: %s has %d results, want 1", d.seed, j.Name, c))
		}
	}
	if got := int(failed.Load()); got != d.wantFail {
		d.violations = append(d.violations, fmt.Sprintf("seed %d: %d jobs failed, the failure hash predicts %d", d.seed, got, d.wantFail))
	}
	if c := other.Load(); c > 0 {
		d.violations = append(d.violations, fmt.Sprintf("seed %d: %d failures were not injected by the executor", d.seed, c))
	}
	st := s.Stats()
	d.ops += n
	d.failed += int(failed.Load())
	d.attempts += int(attempts.Load())
	d.plans += plans.Load()
	d.cacheHits += st.CacheHits
	d.cacheMiss += st.CacheMisses
	return n
}

func (d *dispatch) report(add func(string, metric)) []string {
	jobs := float64(d.ops)
	add("success_frac", pooled(1-float64(d.failed)/jobs, d.ops))
	add("sched.attempts_per_job", pooled(float64(d.attempts)/jobs, d.ops))
	add("sched.plan_calls_per_job", pooled(float64(d.plans)/jobs, d.ops))
	add("sched.cache_hit_frac", pooled(float64(d.cacheHits)/float64(d.cacheHits+d.cacheMiss), d.ops))
	return d.violations
}
