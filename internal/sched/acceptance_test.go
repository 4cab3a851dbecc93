package sched_test

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"detournet/internal/replay"
	"detournet/internal/rsyncx"
	"detournet/internal/sched"
	"detournet/internal/telemetry"
)

// TestChurnAcceptance is the churn stack's claim at the example's
// default seed: of the transfers the storm touches, the control run
// (one attempt, no recovery) fails at least half, the full stack saves
// at least 95%, and the bytes re-sent stay within one checkpoint chunk
// per reroute/retry/failover.
func TestChurnAcceptance(t *testing.T) {
	control, stack := replay.Churn(2015)
	v := replay.CompareChurn(control, stack)

	if v.Affected == 0 {
		t.Fatal("storm touched no transfers; the schedule missed the fleet")
	}
	if got := v.ControlFailRate(); got < 0.50 {
		t.Errorf("control failure rate = %.0f%%, want >= 50%% (failed %d of %d affected)",
			100*got, v.ControlFailed, v.Affected)
	}
	if got := v.StackSurvivalRate(); got < 0.95 {
		t.Errorf("stack survival rate = %.0f%%, want >= 95%% (survived %d of %d affected)",
			100*got, v.StackSurvived, v.Affected)
	}
	if v.ResentBytes > v.ResentBudget {
		t.Errorf("re-sent %.1f MB exceeds the make-before-break budget %.1f MB",
			v.ResentBytes/1e6, v.ResentBudget/1e6)
	}
	if stack.Stats.Reroutes == 0 {
		t.Error("stack run recorded no make-before-break reroutes")
	}
	if stack.Stats.Parks == 0 || stack.Stats.ParkSeconds <= 0 {
		t.Errorf("stack run recorded no parking (parks=%d, %.0fs); the blackhole window went unexercised",
			stack.Stats.Parks, stack.Stats.ParkSeconds)
	}
	if stack.Stats.RouteEvents == 0 || stack.Stats.RouteConverges == 0 {
		t.Errorf("invalidation bus idle: %d events, %d converges",
			stack.Stats.RouteEvents, stack.Stats.RouteConverges)
	}
	if len(stack.Events) == 0 {
		t.Error("no routing-plane events recorded")
	}
}

// The full crash sweep (control + 11 legs) is deterministic and shared
// by every crashsafe acceptance test below: run it once.
var (
	sweepOnce    sync.Once
	sweepControl replay.CrashRun
	sweepLegs    []replay.CrashRun
)

func crashsafeSweep(t *testing.T) (replay.CrashRun, []replay.CrashRun) {
	t.Helper()
	sweepOnce.Do(func() { sweepControl, sweepLegs = replay.CrashSweep(7) })
	return sweepControl, sweepLegs
}

// rewritten is a run's total re-sent bytes.
func rewritten(o replay.Outcome) float64 {
	var b float64
	for _, r := range o.Results {
		b += r.Rewritten
	}
	return b
}

func TestCrashsafeControlArm(t *testing.T) {
	control, _ := crashsafeSweep(t)
	if control.Crashed {
		t.Fatal("control arm crashed")
	}
	if got := control.Done(); got != 60 {
		t.Fatalf("control done = %d, want 60", got)
	}
	if got := len(control.Listing()); got != 60 {
		t.Fatalf("control listing = %d objects, want 60", got)
	}
	if control.Compactions < 1 {
		t.Fatal("control run never compacted the journal")
	}
	if err := control.Check(); err != nil {
		t.Fatal(err)
	}
	if control.IntegrityRetries != 0 {
		t.Fatalf("control IntegrityRetries = %d, want 0", control.IntegrityRetries)
	}
}

// TestCrashsafeSweepAcceptance is crash consistency's gate: a scheduler
// killed at ANY enumerated crash point (plus the bit-rot restart and the
// corrupted-journal leg) restarts, replays, and completes the fleet
// byte-identical with exactly one result per job, zero duplicate
// provider commits, and a bounded re-send cost.
func TestCrashsafeSweepAcceptance(t *testing.T) {
	control, legs := crashsafeSweep(t)
	// Re-send bound: a crash costs at most a rewind of in-flight work —
	// never a whole-fleet rewrite. The bit-rot leg re-fetches exactly
	// the corrupted chunks (2), so two manifest chunks plus slack.
	maxResent := float64(2*rsyncx.ManifestChunk) + 1e5
	for _, l := range legs {
		if err := l.Verify(control); err != nil {
			t.Error(err)
		}
		if err := l.Check(); err != nil {
			t.Errorf("%+v: %v", l.Leg, err)
		}
		if resent := rewritten(l.Outcome) - rewritten(control.Outcome); resent > maxResent {
			t.Errorf("%+v: resent %.0f B > bound %.0f B", l.Leg, resent, maxResent)
		}
	}
}

// TestCrashsafeCoverage asserts the sweep actually exercises every
// enumerated crash point — a point nothing reaches is dead injection.
func TestCrashsafeCoverage(t *testing.T) {
	_, legs := crashsafeSweep(t)
	totals := make(map[string]int)
	for _, l := range legs {
		for pt, n := range l.Hits {
			totals[pt] += n
		}
	}
	for _, pt := range sched.CrashPoints() {
		if totals[pt] == 0 {
			t.Errorf("crash point %q never reached across the sweep", pt)
		}
	}
}

// sweepLeg returns the control and the first sweep leg pick selects.
func sweepLeg(t *testing.T, pick func(replay.CrashLeg) bool) (control, leg replay.CrashRun) {
	t.Helper()
	control, legs := crashsafeSweep(t)
	for _, l := range legs {
		if pick(l.Leg) {
			return control, l
		}
	}
	t.Fatal("sweep has no such leg")
	return
}

// TestCrashsafeBitRotRepair pins the chunk-level repair contract: a
// decayed-disk restart re-fetches only the damaged chunks and never
// falls back to whole-transfer discard.
func TestCrashsafeBitRotRepair(t *testing.T) {
	control, l := sweepLeg(t, func(l replay.CrashLeg) bool { return l.BitRot })
	if err := l.Verify(control); err != nil {
		t.Fatal(err)
	}
	if l.RottedChunks == 0 {
		t.Fatalf("%+v: no chunks rotted — the leg tests nothing", l.Leg)
	}
	repairs := 0
	for _, r := range l.Results {
		repairs += r.ChunkRepairs
	}
	if repairs != l.RottedChunks {
		t.Errorf("ChunkRepairs = %d, RottedChunks = %d — repair granularity drifted", repairs, l.RottedChunks)
	}
	// The re-send cost is the repaired chunks, not the transfer.
	bound := float64(repairs*rsyncx.ManifestChunk) + 1e5
	if resent := rewritten(l.Outcome) - rewritten(control.Outcome); resent > bound {
		t.Errorf("resent %.0f B > %d repaired chunks (%.0f B)", resent, repairs, bound)
	}
}

// TestCrashsafeJournalRot pins recovery from a damaged journal: bit
// rot flips log bytes mid-run, a torn append kills the control plane,
// and the restart — holding only the longest valid prefix — still
// converges byte-identical with no duplicate commits (the lost-record
// window is covered by the provider precheck).
func TestCrashsafeJournalRot(t *testing.T) {
	control, l := sweepLeg(t, func(l replay.CrashLeg) bool { return l.JournalFaults })
	if err := l.Verify(control); err != nil {
		t.Fatal(err)
	}
	if l.Recovered.TruncatedBytes == 0 {
		t.Error("replay truncated nothing — the rot missed the log")
	}
	if err := l.Check(); err != nil {
		t.Error(err)
	}
}

// TestCrashsafeDecay runs the storage-decay arm: DTN torn writes, a
// mid-fleet DTN crash, and staged-chunk rot under a live journal. The
// fleet must still converge exactly once per object.
func TestCrashsafeDecay(t *testing.T) {
	o := replay.Crashsafe(7, replay.CrashLeg{Decay: true})
	if got := o.Done(); got != 60 {
		t.Fatalf("decay done = %d, want 60", got)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if len(o.Transitions) == 0 {
		t.Fatal("decay arm injected nothing")
	}
}

// TestCrashsafeFileDevice runs the torn-append kill against a real
// file-backed journal: the torn tail hits the filesystem and the
// restart truncates it in place.
func TestCrashsafeFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "control.wal")
	o := replay.Crashsafe(7, replay.CrashLeg{
		Point: sched.CrashTornAppend, Occurrence: 600, JournalPath: path,
	})
	control, _ := crashsafeSweep(t)
	if err := o.Verify(control); err != nil {
		t.Fatal(err)
	}
	if o.Recovered.TruncatedBytes == 0 {
		t.Fatal("file-backed replay truncated nothing")
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("journal file missing or empty: %v", err)
	}
}

// counterValue digs a no-label counter/gauge out of a snapshot.
func counterValue(t *testing.T, snap telemetry.Snapshot, name string) float64 {
	t.Helper()
	for _, f := range snap.Families {
		if f.Name == name {
			if len(f.Metrics) == 0 {
				return 0
			}
			return f.Metrics[0].Value
		}
	}
	t.Fatalf("family %q not in snapshot", name)
	return 0
}

// TestTelemetryMetricsMatchStats: Stats is a view of the registry, so
// its counts agree with the exported families, and the route byte
// totals cover exactly the bytes the results say were delivered.
func TestTelemetryMetricsMatchStats(t *testing.T) {
	o := replay.Telemetry(7, true)
	st := o.Stats
	snap := o.Config.Telemetry.Snapshot()
	checks := []struct {
		family string
		want   int64
	}{
		{"sched_jobs_submitted_total", st.Submitted},
		{"sched_jobs_done_total", st.Done},
		{"sched_jobs_failed_total", st.Failed},
		{"sched_retries_total", st.Retries},
		{"sched_reroutes_total", st.Reroutes},
		{"sched_parks_total", st.Parks},
	}
	for _, c := range checks {
		if got := counterValue(t, snap, c.family); got != float64(c.want) {
			t.Errorf("%s = %g, stats say %d", c.family, got, c.want)
		}
	}
	// Route byte totals must cover exactly the delivered bytes.
	var routeBytes, delivered float64
	for _, f := range snap.Families {
		if f.Name == "sched_route_bytes_total" {
			for _, m := range f.Metrics {
				routeBytes += m.Value
			}
		}
	}
	for _, r := range o.Results {
		if r.Err == nil {
			delivered += r.Job.Size
		}
	}
	if routeBytes != delivered {
		t.Errorf("route bytes %g != delivered %g", routeBytes, delivered)
	}
	samples, series := o.Sampler.Samples(), o.Sampler.Snapshot()
	if samples == 0 || len(series) == 0 {
		t.Fatalf("sampler recorded nothing: %d samples, %d series", samples, len(series))
	}
	for _, ss := range series {
		if len(ss.Values) != samples && ss.Dropped == 0 {
			t.Errorf("series %s has %d points, want %d", ss.Name, len(ss.Values), samples)
		}
	}
}

// TestTelemetryFlightRecorderNamesDecisions: a failed transfer's trace
// must name the control-plane decisions hop by hop — election, attempts,
// parking/rerouting, and the failure classification.
func TestTelemetryFlightRecorderNamesDecisions(t *testing.T) {
	o := replay.Telemetry(7, true)
	if o.Stats.Failed == 0 {
		t.Fatal("the thin-stack storm replay should fail at least one job")
	}
	traces := o.Config.Recorder.Retained()
	var failed *telemetry.JobTrace
	for i := range traces {
		if traces[i].Failed {
			failed = &traces[i]
			break
		}
	}
	if failed == nil {
		t.Fatal("no failed trace retained")
	}
	kinds := map[string]int{}
	for _, ev := range failed.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"job.elect", "job.attempt", "job.fail", "job.failed"} {
		if kinds[want] == 0 {
			t.Errorf("failed trace %s missing %q events (have %v)", failed.Job, want, kinds)
		}
	}
	if kinds["job.reroute"] == 0 && kinds["job.park"] == 0 {
		t.Errorf("failed trace %s shows neither a reroute nor a park (have %v)", failed.Job, kinds)
	}
	// Successes are truncated: counted, but no decision events retained.
	for _, tr := range traces {
		if !tr.Failed && len(tr.Events) != 0 {
			t.Errorf("success trace %s kept %d events, want 0", tr.Job, len(tr.Events))
		}
	}
}

// TestTelemetryNoObserverEffect: attaching the telemetry plane must not
// change what the scheduler does — the instrumented and bare replays of
// the same storm deliver identical results on the virtual timeline.
func TestTelemetryNoObserverEffect(t *testing.T) {
	inst := replay.Telemetry(7, true)
	bare := replay.Telemetry(7, false)
	if len(bare.Results) != len(inst.Results) {
		t.Fatalf("result counts differ: bare %d, instrumented %d", len(bare.Results), len(inst.Results))
	}
	for i := range inst.Results {
		a, b := inst.Results[i], bare.Results[i]
		if a.Job.Name != b.Job.Name || (a.Err == nil) != (b.Err == nil) ||
			a.Seconds != b.Seconds || a.Attempts != b.Attempts || a.Route != b.Route {
			t.Fatalf("result %d diverged: instrumented %+v, bare %+v", i, a, b)
		}
	}
	if inst.VirtualSeconds != bare.VirtualSeconds {
		t.Errorf("virtual spans differ: %g vs %g", inst.VirtualSeconds, bare.VirtualSeconds)
	}
	if bare.Sampler != nil || bare.Config.Telemetry != nil || bare.Config.Recorder != nil {
		t.Error("bare run attached part of the observability plane")
	}
	// Stats is a view of the metric handles; the bare run keeps them in
	// a private registry, which must count exactly what the exported one
	// does.
	if !reflect.DeepEqual(bare.Stats, inst.Stats) {
		t.Errorf("stats differ:\n  instrumented %+v\n  bare         %+v", inst.Stats, bare.Stats)
	}
}

// TestTelemetryOverheadGuard asserts the telemetry plane costs under 5%
// of wall time on the reference storm drain — the representative
// scheduler workload, where per-job control-plane work (planning,
// journaling, virtual transfers) is real. Bare and instrumented runs
// interleave in bare-instrumented-instrumented-bare blocks, which cancel
// linear drift (the heap grows run to run) and let load from test
// packages running alongside hit both arms alike; the median block ratio
// is compared, and the guard re-measures before failing so a preempted
// round can't flake the suite. Skipped under the race detector, whose
// uniform slowdown distorts timing. The pure-dispatch cost per job is
// tracked separately by BenchmarkDrainBare/BenchmarkDrainInstrumented.
func TestTelemetryOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("overhead guard is a timing test; race instrumentation distorts it")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	wall := func(instrument bool) float64 {
		runtime.GC() // no run pays for the previous run's garbage
		start := time.Now()
		replay.Telemetry(7, instrument)
		return float64(time.Since(start))
	}
	for attempt := 0; attempt < 3; attempt++ {
		var ratios []float64
		for i := 0; i < 5; i++ {
			b1, i1, i2, b2 := wall(false), wall(true), wall(true), wall(false)
			ratios = append(ratios, (i1+i2)/(b1+b2))
		}
		sort.Float64s(ratios)
		frac := ratios[len(ratios)/2] - 1
		t.Logf("attempt %d: median instrumented/bare %.3f, overhead %.2f%%", attempt, ratios[len(ratios)/2], 100*frac)
		if frac < 0.05 {
			return
		}
	}
	t.Error("telemetry is consistently >5% of the reference drain's wall time")
}
