package sched

import (
	"fmt"
	"testing"
	"time"

	"detournet/internal/core"
	"detournet/internal/telemetry"
)

// guardDrain pushes a small fixed fleet through an instant executor and
// a fixed planner — pure control-plane work.
func guardDrain(jobs int, reg *telemetry.Registry, rec *telemetry.FlightRecorder) time.Duration {
	exec := ExecutorFunc(func(j Job, r core.Route) (float64, error) { return 0, nil })
	plan := PlannerFunc(func(client, provider string, size float64) (core.Route, []core.Route, error) {
		return core.DirectRoute, []core.Route{core.DirectRoute}, nil
	})
	s := New(Config{
		Workers: 1, Executor: exec, Planner: plan,
		ProviderCap: -1, DTNCap: -1,
		Telemetry: reg, Recorder: rec,
	})
	s.Start()
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if err := s.Submit(Job{
			Tenant: "t", Client: "c", Provider: "p",
			Name: fmt.Sprintf("g-%05d", i), Size: 1e6,
		}); err != nil {
			panic(err)
		}
	}
	s.Drain()
	el := time.Since(start)
	s.Close()
	return el
}

// BenchmarkDrainBare / BenchmarkDrainInstrumented expose the same
// comparison as reportable numbers for `make bench`.
func BenchmarkDrainBare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guardDrain(2000, nil, nil)
	}
}

func BenchmarkDrainInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		guardDrain(2000, telemetry.NewRegistry(), telemetry.NewFlightRecorder(nil, 32, 4))
	}
}
