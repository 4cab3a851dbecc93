// Grayfail mode: the gray-failure schedule — degradations that never
// return an error: a provider silently throttling one peering point, a
// DTN's staging disk dying slowly, a link shedding goodput — against a
// fixed UBC fleet, replayed as the no-health ablation, which can only
// escape through the bandit's slow relearning, and with the health
// stack: stall watchdogs, outlier ejection with canary re-admission,
// and per-provider retry budgets.

package replay

import (
	"fmt"
	"io"
	"strings"

	"detournet/internal/faults"
	"detournet/internal/health"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// grayfailJobs is the gray-failure fleet's size.
const grayfailJobs = 60

// grayfailSpec is one arm of the gray-failure replay.
func grayfailSpec(seed int64, stack bool) Spec {
	sp := Spec{
		Seed:   seed,
		Faults: faults.GrayfailSchedule(),
		// The cache TTL outlives the whole replay: a short TTL would let
		// BOTH arms escape a gray window by getting lucky with a
		// re-probe, turning the comparison into a TTL-timing lottery.
		// Pinning it means the ablation can only escape through the
		// bandit's slow relearning and the stack only through the health
		// layer — which is exactly the delta the replay measures.
		Config: sched.Config{MaxAttempts: 4, CacheTTL: 3600},
		// A single-site fleet: UBC to Google Drive. Its favorite detour
		// via UAlberta is exactly what the schedule silently sickens —
		// first the provider throttles the DTN's peering point (the relay
		// hop crawls, invisibly to the client), then the DTN's staging
		// disk degrades (the first hop crawls, visibly slowly).
		Fleet: fleet(grayfailJobs, func(i int) sched.Job {
			return sched.Job{
				Tenant: "grayfail", Client: scenario.UBC,
				Provider: scenario.GoogleDrive,
				Name:     fmt.Sprintf("gray-%03d.bin", i), Size: 60e6,
			}
		}),
	}
	if stack {
		sp.Setup = armHealth
	}
	return sp
}

// armHealth gives the arm a health tracker on the virtual clock and
// arms the executor's stall watchdogs with it.
func armHealth(e *Env) {
	h := health.New(health.Options{Now: e.Exec.VirtualNow, Trace: e.World.Trace})
	e.Config.Health = h
	e.Exec.SetHealth(h)
}

// Grayfail replays the gray-failure schedule as the no-health ablation
// and with the health stack, over the same fleet and seed.
func Grayfail(seed int64) (control, stack Outcome) {
	return Run(grayfailSpec(seed, false)), Run(grayfailSpec(seed, true))
}

// GrayDetection is one silent fault window and when the watchdog first
// caught it.
type GrayDetection struct {
	// Fault is the injector kind string (e.g. "provider-slow").
	Fault string
	// Start is the window's first activation time; DetectedAt the first
	// watchdog abort at or after it (-1 when none fired).
	Start      float64
	DetectedAt float64
}

// GrayDetections pairs each silent fault kind's first window in a run
// with the first watchdog abort (a health.stall trace event) at or
// after it opened.
func GrayDetections(o Outcome) []GrayDetection {
	var out []GrayDetection
	for _, kind := range []string{"provider-slow", "dtn-disk-slow"} {
		for _, line := range o.Transitions {
			if !strings.Contains(line, " "+kind+" ") || !strings.HasSuffix(line, "active=true") {
				continue
			}
			var t float64
			if _, err := fmt.Sscanf(line, "t=%f", &t); err == nil {
				out = append(out, GrayDetection{Fault: kind, Start: t, DetectedAt: -1})
			}
			break
		}
	}
	stalls := o.World.Trace.Filter("health.stall")
	for i := range out {
		for _, ev := range stalls {
			if ev.At >= out[i].Start {
				out[i].DetectedAt = ev.At
				break
			}
		}
	}
	return out
}

// speedup is the stack arm's goodput over the control's (0 when the
// control delivered nothing).
func speedup(control, stack Outcome) float64 {
	if g := control.Goodput(); g > 0 {
		return stack.Goodput() / g
	}
	return 0
}

// WriteGrayfail replays the gray-failure schedule without and with the
// health stack and writes the report `detourbench -experiment grayfail`
// prints.
func WriteGrayfail(out io.Writer, seed int64) {
	control, stack := Grayfail(seed)
	line := func(label string, o Outcome) {
		st := o.Stats
		fmt.Fprintf(out, "%-8s %3d done %3d failed | %d stalls %d stall-reroutes %d canaries %d budget-parked | %d retries | goodput %.2f MB/s | %.0f virtual s\n",
			label, st.Done, st.Failed, st.Stalls, st.StallReroutes, st.Canaries,
			st.BudgetParks, st.Retries, o.Goodput()/1e6, o.VirtualSeconds)
	}
	fmt.Fprintf(out, "Grayfail: %d transfers vs silent degradation (%d fault transitions, hard errors only in the t=650-770 burst)\n",
		len(stack.Results), len(stack.Transitions))
	line("control", control)
	line("stack", stack)

	fmt.Fprintf(out, "goodput %.2fx the no-health ablation\n", speedup(control, stack))
	fmt.Fprintln(out, "detection (first watchdog abort at or after each silent window opens):")
	for _, d := range GrayDetections(stack) {
		if d.DetectedAt < 0 {
			fmt.Fprintf(out, "  %-14s window t=%-5.0f undetected\n", d.Fault, d.Start)
			continue
		}
		fmt.Fprintf(out, "  %-14s window t=%-5.0f first stall t=%-7.1f latency %.1fs\n",
			d.Fault, d.Start, d.DetectedAt, d.DetectedAt-d.Start)
	}
	writeHealth(out, stack.Config.Health)
}

// writeHealth renders a health tracker's state: its transition log, one
// row per tracked entity, and each provider's retry-bucket ledger.
func writeHealth(out io.Writer, h *health.Tracker) {
	fmt.Fprintln(out, "health transitions:")
	writeLines(out, h.Transitions())
	fmt.Fprintln(out, "health table:")
	for _, e := range h.Snapshot() {
		state := "healthy"
		if e.Probation {
			state = "probation"
		}
		fmt.Fprintf(out, "  %-9s %-16s baseline %6.2f MB/s  %-9s stalls %d  obs %d\n",
			e.Class, e.Entity, e.Baseline/1e6, state, e.Stalls, e.Observations)
	}
	fmt.Fprintln(out, "retry budgets:")
	for _, b := range h.RetryBudgets() {
		fmt.Fprintf(out, "  %-12s tokens %.1f  spent %d  denied %d\n",
			b.Provider, b.Tokens, b.Spent, b.Denied)
	}
}

// writeLines prints one indented line per log entry.
func writeLines(out io.Writer, lines []string) {
	for _, l := range lines {
		fmt.Fprintf(out, "  %s\n", l)
	}
}
