// Churn mode: the BGP reconvergence storm (faults.ChurnSchedule over
// staged-convergence routing) against a fixed two-site fleet, replayed
// as the ablated control — one attempt, no recovery, TTL-only caching —
// and with the full churn stack: checkpointed resume, make-before-break
// rerouting with parking, and push-based route invalidation off the
// route bus.

package replay

import (
	"fmt"
	"io"

	"detournet/internal/core"
	"detournet/internal/faults"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// churnJobs is the storm fleet's size.
const churnJobs = 36

// churnSpec is one arm of the storm replay.
func churnSpec(seed int64, stack bool) Spec {
	cfg := sched.Config{MaxAttempts: 5, Reroute: true, ParkBudget: 120}
	var setup func(*Env)
	if !stack {
		// The control runs every attempt from byte zero: an Execute-only
		// executor offers the scheduler no checkpoint to resume from.
		cfg = sched.Config{MaxAttempts: 1}
		setup = func(e *Env) { e.Config.Executor = sched.ExecutorFunc(e.Exec.Execute) }
	}
	// A fixed two-site fleet on the storm's target provider: UBC rides
	// the pinned PacificWave path that flips away and back, UAlberta
	// sits behind the Cybera~CANARIE session that gets cut entirely.
	// 60 MB transfers are long enough that fault windows land
	// mid-flight.
	clients := []string{scenario.UBC, scenario.UAlberta}
	return Spec{
		Seed:   seed,
		World:  []scenario.Option{scenario.WithDynamicRouting()},
		Faults: faults.ChurnSchedule(),
		Setup:  setup,
		Config: cfg,
		Fleet: fleet(churnJobs, func(i int) sched.Job {
			return sched.Job{
				Tenant: "churn", Client: clients[i%len(clients)],
				Provider: scenario.GoogleDrive,
				Name:     fmt.Sprintf("churn-%03d.bin", i), Size: 60e6,
			}
		}),
	}
}

// Churn replays the storm as the ablated control and with the full
// churn stack, over the same fleet and seed.
func Churn(seed int64) (control, stack Outcome) {
	return Run(churnSpec(seed, false)), Run(churnSpec(seed, true))
}

// affected lists the jobs a run shows the storm touched: a failure, a
// retry, a reroute, parking, or re-sent bytes.
func affected(o Outcome) map[string]bool {
	out := make(map[string]bool)
	for _, r := range o.Results {
		if r.Err != nil || r.Attempts > 1 || r.Reroutes > 0 || r.Parked > 0 || r.Rewritten > 0 {
			out[r.Job.Name] = true
		}
	}
	return out
}

// ChurnVerdict is the acceptance arithmetic over a control/stack pair,
// computed on the union of jobs either run shows the storm touched.
type ChurnVerdict struct {
	// Affected is how many distinct jobs the storm touched across the
	// two runs.
	Affected int
	// ControlFailed of those failed in the control run; StackSurvived
	// and StackFailed split them for the stack run.
	ControlFailed int
	StackSurvived int
	StackFailed   int
	// ResentBytes is the stack run's total re-sent (rewritten) bytes;
	// ResentBudget is one checkpoint chunk per reroute, failover, and
	// retry — the bound make-before-break promises.
	ResentBytes  float64
	ResentBudget float64
}

// ControlFailRate and StackSurvivalRate are fractions of Affected.
func (v ChurnVerdict) ControlFailRate() float64 {
	if v.Affected == 0 {
		return 0
	}
	return float64(v.ControlFailed) / float64(v.Affected)
}

func (v ChurnVerdict) StackSurvivalRate() float64 {
	if v.Affected == 0 {
		return 0
	}
	return float64(v.StackSurvived) / float64(v.Affected)
}

// CompareChurn scores a control run against a stack run of the same
// fleet and seed.
func CompareChurn(control, stack Outcome) ChurnVerdict {
	aff := affected(control)
	for name := range affected(stack) {
		aff[name] = true
	}
	v := ChurnVerdict{Affected: len(aff)}
	for _, r := range control.Results {
		if aff[r.Job.Name] && r.Err != nil {
			v.ControlFailed++
		}
	}
	for _, r := range stack.Results {
		if !aff[r.Job.Name] {
			continue
		}
		if r.Err == nil {
			v.StackSurvived++
		} else {
			v.StackFailed++
		}
	}
	v.ResentBytes = stack.Stats.BytesRewritten
	v.ResentBudget = core.DefaultResumeChunk *
		float64(stack.Stats.Reroutes+stack.Stats.Retries+stack.Stats.Failovers)
	return v
}

// WriteChurn replays the storm control vs stack and writes the report
// `detourbench -experiment churn` prints. It returns the verdict.
func WriteChurn(out io.Writer, seed int64) ChurnVerdict {
	control, stack := Churn(seed)
	line := func(label string, o Outcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | %d reroutes %d parks %.0fs parked | %d retries %d failovers | %.1f MB resumed %.1f MB re-sent | %.0f virtual s\n",
			label, st.Done, st.Failed, st.Reroutes, st.Parks, st.ParkSeconds,
			st.Retries, st.Failovers, st.BytesResumed/1e6, st.BytesRewritten/1e6,
			o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Churn: %d transfers vs a reconvergence storm (%d routing events, %d fault transitions)\n",
		len(stack.Results), len(stack.Events), len(stack.Transitions))
	line("control", control)
	line("stack", stack)

	v := CompareChurn(control, stack)
	fmt.Fprintf(out, "storm touched %d transfers: control failed %d (%.0f%%), stack survived %d (%.0f%%)\n",
		v.Affected, v.ControlFailed, 100*v.ControlFailRate(),
		v.StackSurvived, 100*v.StackSurvivalRate())
	fmt.Fprintf(out, "re-sent bytes %.1f MB within the make-before-break bound %.1f MB (one %d MB chunk per reroute/retry/failover)\n",
		v.ResentBytes/1e6, v.ResentBudget/1e6, core.DefaultResumeChunk/(1<<20))
	fmt.Fprintf(out, "invalidation bus: %d events -> %d converging holds, %d announce releases, %d re-elections\n",
		stack.Stats.RouteEvents, stack.Stats.RouteConverges, stack.Stats.RouteAnnounces,
		stack.Stats.CacheInvalidations)

	fmt.Fprintln(out, "routing events (first 10):")
	for i, ev := range stack.Events {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more\n", len(stack.Events)-10)
			break
		}
		fmt.Fprintf(out, "  %s\n", ev)
	}

	fmt.Fprintln(out, "stack per-route totals:")
	WriteRoutes(out, "  ", stack.Stats)
	return v
}
