// Telemetry mode: a flash crowd rides out the reconvergence storm
// through a deliberately thin scheduler stack while the observability
// plane watches it: a metrics registry collects counters and
// histograms, a sampler on the virtual clock records per-window time
// series (link utilization, queue depth, DTN staging fill, provider
// quota headroom, journal size, active flows) into ring buffers, and a
// flight recorder keeps the complete decision trace of every failed
// transfer. The sampler ticks as a scenario pauser, so its series are
// as deterministic as the rest of the replay.

package replay

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"detournet/internal/faults"
	"detournet/internal/journal"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
	"detournet/internal/workload"
)

// sampleEvery is the sampler's virtual-second grid.
const sampleEvery = 15

// The flash crowd's size and its live-line period: WriteTelemetry
// prints a compact telemetry line every dumpEvery virtual seconds.
const (
	telemetryJobs = 40
	dumpEvery     = 120.0
)

// telemetrySpec is the instrumented flash-crowd replay. A non-nil
// dumpTo gets a compact telemetry line every dumpEvery virtual
// seconds. With instrument false the identical storm runs with the
// whole plane detached — the overhead guard's baseline.
func telemetrySpec(seed int64, instrument bool, dumpTo io.Writer) Spec {
	const size = 24e6
	// The flash crowd: a calm lead-in, a burst that lands inside the
	// storm's churn windows, and a calm tail.
	crowd, err := workload.NewFlashCrowd(
		workload.Phase{RatePerSec: 0.05, Seconds: 40},
		workload.Phase{RatePerSec: 0.5, Seconds: 120},
		workload.Phase{RatePerSec: 0.05},
	)
	if err != nil {
		panic(err)
	}
	trace, err := workload.GenerateFleet(workload.FleetSpec{
		Jobs:      telemetryJobs,
		Clients:   []string{scenario.UBC, scenario.UAlberta},
		Providers: []string{scenario.GoogleDrive},
		Tenants:   []string{"telemetry"},
		Sizes:     workload.Fixed{Bytes: size},
		Arrivals:  crowd,
		Prefix:    "tlm", PriorityLevels: 1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return Spec{
		Seed:   seed,
		World:  []scenario.Option{scenario.WithDynamicRouting()},
		Faults: faults.ChurnSchedule(),
		// A deliberately thin survival stack: rerouting with a short park
		// budget and only one retry, so the storm's blackhole windows
		// produce real failures — the traces the flight recorder exists
		// to keep.
		Config: sched.Config{MaxAttempts: 2, Reroute: true, ParkBudget: 20},
		Setup: func(e *Env) {
			w := e.World
			// Part of the thin stack: the planner hides its route paths, so
			// routing events never re-elect a cached route and the storm's
			// blackholes are met only by rerouting, parking and the one
			// retry.
			e.Config.Planner = sched.PlannerFunc(e.Config.Planner.Plan)
			// Every consumer of the plane is nil-safe, so the bare arm runs
			// the identical code with it detached.
			if instrument {
				e.Config.Telemetry = telemetry.NewRegistry()
				e.Config.Recorder = telemetry.NewFlightRecorder(e.Exec.VirtualNow, 64, 6)
				e.Sampler = telemetry.NewSampler(w.Eng, sampleEvery, 1024)
				// The sampler pauses like cross-traffic: armed only while a
				// workload drives the engine, so its self-rescheduling tick
				// never wedges the event-queue drain between transfers.
				w.AddPauser(e.Sampler)
			}
			cj, _ := mustJournal(journal.NewMemDevice())
			e.Config.Journal = cj
			// A finite provider quota (ample — double the fleet) makes the
			// headroom series meaningful without ever rejecting a byte.
			svc := w.Services[scenario.GoogleDrive]
			store := svc.Store
			store.Quota = 2 * telemetryJobs * size

			// One probe per series. Link picks: the paper's rate-limited
			// PacificWave hand-off, the fast private peering, and the
			// CANARIE detour's first hop.
			samp := e.Sampler
			type linkProbe struct {
				name  string
				probe func() float64
			}
			var links []linkProbe
			for _, lk := range [][2]string{
				{"vncv1", "pacificwave"},
				{"vncv1", "google-peer"},
				{"vncv1", "edmn1"},
			} {
				edge, ok := w.Graph.Edge(lk[0], lk[1])
				if !ok {
					continue
				}
				lp := linkProbe{name: "link." + lk[0] + ">" + lk[1] + ".util", probe: edge.Link.Utilization}
				links = append(links, lp)
				samp.Track(lp.name, lp.probe)
			}
			fl := w.Graph.Fluid()
			samp.Track("net.flows", func() float64 { return float64(fl.ActiveFlows()) })
			samp.Track("sched.queued", func() float64 { q, _ := e.Sched.Depths(); return float64(q) })
			samp.Track("sched.running", func() float64 { _, r := e.Sched.Depths(); return float64(r) })
			for _, dtn := range scenario.DTNs {
				d := w.Daemons[dtn]
				samp.Track("dtn."+dtn+".staged_mb", func() float64 { return d.Stats().Used / 1e6 })
			}
			samp.Track("provider.gdrive.stored_mb", func() float64 { return store.Used() / 1e6 })
			samp.Track("provider.gdrive.headroom_mb", func() float64 { return store.QuotaHeadroom() / 1e6 })
			samp.Track("provider.gdrive.pending_mb", func() float64 { return svc.PendingBytes() / 1e6 })
			samp.Track("journal.kb", func() float64 { return float64(cj.DeviceSize()) / 1024 })

			if dumpTo != nil {
				next := dumpEvery
				samp.OnSample(func(t float64) {
					if t+1e-9 < next {
						return
					}
					next = (math.Floor(t/dumpEvery) + 1) * dumpEvery
					q, run := e.Sched.Depths()
					fmt.Fprintf(dumpTo, "[t=%6.0f] queued=%2d running=%d flows=%2.0f", t, q, run,
						float64(fl.ActiveFlows()))
					for _, lp := range links {
						fmt.Fprintf(dumpTo, " %s=%.2f", lp.name[len("link."):], lp.probe())
					}
					fmt.Fprintf(dumpTo, " journal=%.1fKB\n", float64(cj.DeviceSize())/1024)
				})
			}
		},
		Fleet: Arrivals(trace),
	}
}

// Telemetry replays the flash crowd once, with the observability plane
// attached or (instrument false) detached.
func Telemetry(seed int64, instrument bool) Outcome {
	return Run(telemetrySpec(seed, instrument, nil))
}

// WriteTelemetry replays the instrumented flash crowd and writes what
// `detourbench -experiment telemetry` prints: a compact live line every
// dumpEvery virtual seconds while the fleet drains, then the dashboard,
// then the full report.
func WriteTelemetry(out io.Writer, seed int64) {
	fmt.Fprintln(out, "== live telemetry ==")
	o := Run(telemetrySpec(seed, true, out))
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== dashboard ==")
	writeDash(out, o)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "== full report ==")
	writeTelemetryReport(out, o)
}

// sparkWidth is the dashboard sparkline width in columns.
const sparkWidth = 48

// writeSeries renders one time-series line: name, min/max/last, spark.
func writeSeries(out io.Writer, ss telemetry.SeriesSnapshot) {
	fmt.Fprintf(out, "  %-32s %9.2f .. %-9.2f last %9.2f  |%s|\n",
		ss.Name, ss.Min(), ss.Max(), ss.Last(), telemetry.Spark(ss.Values, sparkWidth))
}

// writeTelemetryReport renders the full report: run stats, the sampled
// time series with sparklines, the failed jobs' flight-recorder traces
// decision by decision, and the Prometheus dump.
func writeTelemetryReport(out io.Writer, o Outcome) {
	fmt.Fprintf(out, "Telemetry: %d transfers through a reconvergence storm (%d fault transitions, %.0f virtual s, goodput %.2f MB/s)\n",
		len(o.Results), len(o.Transitions), o.VirtualSeconds, o.Goodput()/1e6)
	fmt.Fprintf(out, "stats: %s\n", o.Stats)

	fmt.Fprintf(out, "time series (every %g virtual s, %d samples):\n", o.Sampler.Interval(), o.Sampler.Samples())
	for _, ss := range o.Sampler.Snapshot() {
		writeSeries(out, ss)
	}

	finished, failed := o.Config.Recorder.Counts()
	fmt.Fprintf(out, "flight recorder: %d jobs finished, %d failed traces retained in full\n", finished, failed)
	for _, tr := range o.Config.Recorder.Retained() {
		if !tr.Failed {
			continue
		}
		fmt.Fprintf(out, "  %s — %d events (%d dropped):\n", tr.Job, tr.Seen, tr.Dropped)
		for _, ev := range tr.Events {
			fmt.Fprintf(out, "    %s\n", ev.String())
		}
	}

	fmt.Fprintln(out, "metrics (prometheus):")
	if err := o.Config.Telemetry.Snapshot().WritePrometheus(out); err != nil {
		panic(err)
	}
}

// writeDash renders the dashboard: headline counters, every sampled
// series as a sparkline, and one line per retained failed trace.
func writeDash(out io.Writer, o Outcome) {
	st := o.Stats
	fmt.Fprintf(out, "== detour telemetry dashboard (%.0f virtual s, %d samples every %gs) ==\n",
		o.VirtualSeconds, o.Sampler.Samples(), o.Sampler.Interval())
	fmt.Fprintf(out, " jobs: %d done / %d failed / %d expired / %d shed | goodput %.2f MB/s\n",
		st.Done, st.Failed, st.Expired, st.Shed, o.Goodput()/1e6)
	fmt.Fprintf(out, " churn: %d reroutes, %d parks (%.0fs), %d retries, %d failovers, %d fallbacks\n",
		st.Reroutes, st.Parks, st.ParkSeconds, st.Retries, st.Failovers, st.Fallbacks)
	fmt.Fprintln(out, " series:")
	for _, ss := range o.Sampler.Snapshot() {
		writeSeries(out, ss)
	}
	finished, failed := o.Config.Recorder.Counts()
	fmt.Fprintf(out, " flight recorder: %d finished, %d failed retained\n", finished, failed)
	for _, tr := range o.Config.Recorder.Retained() {
		if !tr.Failed {
			continue
		}
		last := "-"
		if len(tr.Events) > 0 {
			last = tr.Events[len(tr.Events)-1].String()
		}
		fmt.Fprintf(out, "  failed %-14s %2d events, last: %s\n", tr.Job, tr.Seen, last)
	}
}
