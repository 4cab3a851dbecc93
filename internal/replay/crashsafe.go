// Crashsafe mode: a journaled scheduler drives a fixed UBC fleet; when
// a crash point is armed the control plane dies there, and the mode
// restarts it on the same journal device over the same world. The
// restart truncates any torn tail, re-seats journaled finishes, and
// resumes in-flight transfers from their journaled checkpoints under
// their original idempotent attempt IDs. The sweep checks what an
// operator cares about: the provider holds exactly the objects the
// crash-free run produced (byte-identical listing), no object was
// committed twice, and the crash cost at most a rewind's worth of
// re-sent bytes.

package replay

import (
	"fmt"
	"io"
	"slices"

	"detournet/internal/faults"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/scenario"
	"detournet/internal/sched"
)

// CrashLeg is one crash scenario.
type CrashLeg struct {
	// Point arms a kill at the named control-plane crash point (see
	// sched.CrashPoints) on its Occurrence-th hit (1-based). Empty runs
	// crash-free — the control arm.
	Point      string
	Occurrence int
	// BitRot corrupts staged chunks of every in-flight job between the
	// crash and the restart — the decayed-disk restart. Recovery must
	// repair exactly the damaged chunks, never discard the transfer.
	BitRot bool
	// JournalFaults turns the decay on the journal itself: injected bit
	// rot flips journal bytes mid-run, then a torn append kills the
	// control plane mid-record. The restart must recover the longest
	// valid prefix and precheck its way past the lost records.
	JournalFaults bool
	// Decay arms faults.CrashsafeSchedule: DTN torn writes, a mid-fleet
	// DTN crash, and periodic staged-chunk rot.
	Decay bool
	// JournalPath backs the journal with a real file (torn tails and
	// compaction swaps hit the filesystem); empty uses an in-memory
	// device.
	JournalPath string
}

// label renders the leg's scenario name.
func (l CrashLeg) label() string {
	if l.Point == "" && l.JournalFaults {
		return "journal-rot+torn"
	}
	s := fmt.Sprintf("%s#%d", l.Point, l.Occurrence)
	if l.BitRot {
		s += "+bitrot"
	}
	if l.JournalFaults {
		s += "+jrot"
	}
	return s
}

// CrashRun is one leg's outcome.
type CrashRun struct {
	// Outcome merges the journal-replayed finishes with the restarted
	// scheduler's live results, exactly one per fleet job. Stats are the
	// final incarnation's.
	Outcome
	Leg CrashLeg
	// Crashed reports whether the kill fired; Recovered is the restart's
	// journal replay (nil when it never fired).
	Crashed   bool
	Recovered *sched.Recovered
	// Hits is each crash point's reach count over both incarnations —
	// the sweep's coverage evidence. Compactions counts journal snapshot
	// swaps over both.
	Hits        map[string]int
	Compactions int
	// RottedChunks is how many staged chunks the BitRot restart
	// corrupted; IntegrityRetries sums both incarnations'
	// whole-transfer integrity discards.
	RottedChunks     int
	IntegrityRetries int64
}

// crashJobs is the fleet size: 60 transfers of 60 MB.
const crashJobs = 60

// crashSpec is one incarnation over the fleet minus the jobs skip names
// (in fleet order, so recovered names reuse their sequence numbers and
// therefore their idempotent attempt IDs), journaled on cj, with ctl
// wired into the injector and a fresh health tracker whose retry
// budgets are drained to the journaled level: a crash must not refill a
// sick provider's bucket.
func crashSpec(seed int64, specs []faults.Spec, cj *sched.ControlJournal, ctl *faults.CrashControl, skip map[string]bool, retrySpent map[string]float64) Spec {
	var jobs []Arrival
	for i := 0; i < crashJobs; i++ {
		name := fmt.Sprintf("crash-%03d.bin", i)
		if skip[name] {
			continue
		}
		jobs = append(jobs, Arrival{Job: sched.Job{
			Tenant: "crashsafe", Client: scenario.UBC,
			Provider: scenario.GoogleDrive,
			Name:     name, Size: 60e6,
			MD5: rsyncx.Checksum([]byte(name)),
		}})
	}
	return Spec{
		Seed:   seed,
		Faults: specs,
		Config: sched.Config{MaxAttempts: 4, CacheTTL: 3600, Journal: cj},
		Setup: func(e *Env) {
			if e.Injector != nil {
				e.Injector.SetCrashControl(ctl)
			}
			armHealth(e)
			for _, p := range sortedKeys(retrySpent) {
				e.Config.Health.RestoreSpentRetries(p, retrySpent[p])
			}
		},
		Fleet: jobs,
	}
}

// Crashsafe runs one leg: a crash-free control when no Point is armed
// (or the armed occurrence is never reached), otherwise kill, restart
// and replay on the same journal device.
func Crashsafe(seed int64, leg CrashLeg) CrashRun {
	var specs []faults.Spec
	if leg.Decay {
		specs = faults.CrashsafeSchedule()
	}
	if leg.JournalFaults {
		// Journal decay: rot flips log bytes while transfers run, then a
		// torn append (which is also a kill — the write and the process
		// die together) forces the restart to replay the damaged log.
		specs = append(specs,
			faults.Spec{Kind: faults.BitRot, Journal: true, Start: 20, Duration: 5, Flips: 3},
			faults.Spec{Kind: faults.TornWrite, Journal: true, Start: 40, Duration: 1e9},
		)
	}
	var dev journal.Device = journal.NewMemDevice()
	if leg.JournalPath != "" {
		fd, err := journal.OpenFileDevice(leg.JournalPath)
		if err != nil {
			panic(fmt.Sprintf("crashsafe: journal device: %v", err))
		}
		dev = fd
	}

	// --- first incarnation ---
	cj, _ := mustJournal(dev)
	if leg.Point != "" {
		// Armed before the scheduler exists: the kill plan is part of the
		// experiment, not a mid-run race, and counting hits (not virtual
		// time) deterministically catches points in the t≈0 submit burst.
		cj.Arm(leg.Point, leg.Occurrence)
	}
	first := Run(crashSpec(seed, specs, cj, &faults.CrashControl{
		TornJournal: cj.TornJournal, FlipJournal: cj.FlipJournalByte,
	}, nil, nil))
	run := CrashRun{Outcome: first, Leg: leg, Hits: make(map[string]int)}
	// tally adds one incarnation's journal and integrity accounting.
	tally := func(cj *sched.ControlJournal, o Outcome) {
		run.Compactions += cj.Compactions()
		run.IntegrityRetries += o.Stats.IntegrityRetries
		for _, pt := range sched.CrashPoints() {
			run.Hits[pt] += cj.HitCount(pt)
		}
	}
	tally(cj, first)
	if !cj.Killed() {
		return run
	}
	run.Crashed = true

	// --- the crash: the dead process's memory is gone; the journal
	// device and the world (DTN disks, provider state) survive ---

	// Reopen the journal: replay, truncate any torn tail, fold.
	cj2, rec := mustJournal(dev)
	run.Recovered = rec
	if leg.BitRot {
		run.RottedChunks = rotPending(first.World, rec)
	}
	skip := make(map[string]bool, len(rec.Finished))
	for _, r := range rec.Finished {
		skip[r.Job.Name] = true
	}
	// The restart must not die at the same planned point again — the
	// fault modeled a one-shot kill, and the inherited torn-append
	// window would otherwise re-arm it on the new journal. Journal rot,
	// though, keeps targeting the live device.
	second := drive(first.World, first.Injector, crashSpec(seed, nil, cj2, &faults.CrashControl{
		TornJournal: func(bool) {}, FlipJournal: cj2.FlipJournalByte,
	}, skip, rec.RetrySpent))

	// One Result per job: journal-replayed finishes first (their
	// attempts and bytes counted exactly once — the journal's dedupe
	// already dropped any double-written finish record), then the
	// restarted scheduler's live ones.
	second.Results = append(append([]sched.Result{}, rec.Finished...), second.Results...)
	second.Fleet = first.Fleet
	run.Outcome = second
	tally(cj2, second)
	return run
}

// rotPending decays the staging media under every in-flight job while
// the process is down: chunk 0 and a middle chunk — deterministic, and
// enough to prove repair granularity. It returns the chunks rotted.
func rotPending(w *scenario.World, rec *sched.Recovered) int {
	n := 0
	for _, pj := range rec.Pending {
		if !pj.HasCkpt || pj.Ck.Hop1Via == "" {
			continue
		}
		d := w.Daemons[pj.Ck.Hop1Via]
		if d == nil {
			continue
		}
		if d.RotChunk(pj.Job.Name, 0) {
			n++
		}
		if k := d.StagedChunks(pj.Job.Name); k > 2 && d.RotChunk(pj.Job.Name, k/2) {
			n++
		}
	}
	return n
}

// CrashSweep runs the control arm once and every sweep leg: every crash
// point, with an occurrence tuned to land mid-fleet, plus the bit-rot
// restart and the rotted-journal leg.
func CrashSweep(seed int64) (control CrashRun, legs []CrashRun) {
	control = Crashsafe(seed, CrashLeg{})
	for _, leg := range []CrashLeg{
		{Point: sched.CrashAfterSubmit, Occurrence: 30},
		{Point: sched.CrashBeforeAttempt, Occurrence: 15},
		{Point: sched.CrashAfterAttempt, Occurrence: 35},
		{Point: sched.CrashTornAppend, Occurrence: 600},
		{Point: sched.CrashMidHop1, Occurrence: 200},
		{Point: sched.CrashMidHop2, Occurrence: 700},
		{Point: sched.CrashBeforeFinish, Occurrence: 30},
		{Point: sched.CrashAfterFinish, Occurrence: 40},
		{Point: sched.CrashDuringCompact, Occurrence: 2},
		{Point: sched.CrashMidHop2, Occurrence: 5, BitRot: true},
		{JournalFaults: true},
	} {
		legs = append(legs, Crashsafe(seed, leg))
	}
	return control, legs
}

// totals sums a run's checkpoint accounting: bytes skipped thanks to
// checkpoints, bytes sent more than once, and repaired chunks.
func totals(o Outcome) (resumed, rewritten float64, repairs int) {
	for _, r := range o.Results {
		resumed += r.Resumed
		rewritten += r.Rewritten
		repairs += r.ChunkRepairs
	}
	return resumed, rewritten, repairs
}

// maxCommits is the largest materializing-commit count any fleet object
// received at the target provider (1 means no duplicate commits).
func (c CrashRun) maxCommits() int {
	store := c.World.Services[scenario.GoogleDrive].Store
	m := 0
	for _, a := range c.Fleet {
		m = max(m, store.Commits(a.Name))
	}
	return m
}

// Verify checks a crash leg against the crash-free control and reports
// the first broken crash-consistency promise: the kill never fired, the
// leg finished a different job count, its provider listing diverged, it
// committed an object twice, or it discarded a whole transfer.
func (c CrashRun) Verify(control CrashRun) error {
	name := c.Leg.label()
	switch {
	case !c.Crashed:
		return fmt.Errorf("%s: kill never fired", name)
	case c.Done() != control.Done():
		return fmt.Errorf("%s: %d done, control %d", name, c.Done(), control.Done())
	case !slices.Equal(c.Listing(), control.Listing()):
		return fmt.Errorf("%s: provider listing diverged", name)
	case c.maxCommits() != 1:
		return fmt.Errorf("%s: %d commits on one object", name, c.maxCommits())
	case c.IntegrityRetries != 0:
		return fmt.Errorf("%s: %d whole-transfer integrity discards", name, c.IntegrityRetries)
	}
	return nil
}

// WriteCrashsafe runs the sweep and the storage-decay arm and writes the
// report `detourbench -experiment crashsafe` prints. The error is the
// first leg's Verify failure.
func WriteCrashsafe(out io.Writer, seed int64) error {
	control, legs := CrashSweep(seed)
	_, controlRewritten, _ := totals(control.Outcome)
	listing := control.Listing()
	fmt.Fprintf(out, "Crashsafe: %d-job fleet, kill at every control-plane crash point, restart on the journal\n", len(control.Results))
	fmt.Fprintf(out, "control: %d done | %d objects | rewritten %.1f MB | %d compactions | %.0f virtual s\n",
		control.Done(), len(listing), controlRewritten/1e6, control.Compactions, control.VirtualSeconds)
	var broken error
	for _, l := range legs {
		ident := "IDENTICAL"
		if !slices.Equal(listing, l.Listing()) {
			ident = "DIVERGED"
		}
		var rec sched.Recovered
		if l.Recovered != nil {
			rec = *l.Recovered
		}
		dupSuppressed := 0
		for _, p := range sortedKeys(l.World.Services) {
			dupSuppressed += l.World.Services[p].Store.DuplicatesSuppressed()
		}
		_, rewritten, repairs := totals(l.Outcome)
		fmt.Fprintf(out, "%-22s done %2d/%2d | replayed %2d (+%d records, %d B truncated, %d dup) | commits<=%d dup-suppressed %d | resent %6.1f MB | repairs %d | %s\n",
			l.Leg.label(), l.Done(), len(l.Results), len(rec.Finished), rec.Records,
			rec.TruncatedBytes, rec.DupFinishes, l.maxCommits(), dupSuppressed,
			(rewritten-controlRewritten)/1e6, repairs, ident)
		if broken == nil {
			broken = l.Verify(control)
		}
	}
	fmt.Fprintln(out, "crash-point coverage (reaches across the sweep):")
	reach := make(map[string]int)
	for _, run := range append(legs, control) {
		for pt, n := range run.Hits {
			reach[pt] += n
		}
	}
	for _, pt := range sched.CrashPoints() {
		fmt.Fprintf(out, "  %-15s %d\n", pt, reach[pt])
	}

	// The storage-decay arm: DTN torn writes, a mid-fleet DTN crash, and
	// staged-chunk rot, healed by chunk-level repair instead of
	// whole-transfer discard.
	decay := Crashsafe(seed, CrashLeg{Decay: true})
	resumed, rewritten, repairs := totals(decay.Outcome)
	fmt.Fprintf(out, "decay: %d done %d failed | repairs %d integrity-retries %d | resumed %.1f MB rewritten %.1f MB | %d fault transitions | %.0f virtual s\n",
		decay.Stats.Done, decay.Stats.Failed, repairs, decay.IntegrityRetries,
		resumed/1e6, rewritten/1e6, len(decay.Transitions), decay.VirtualSeconds)

	if got := control.Done(); got != len(control.Results) || got == 0 {
		return fmt.Errorf("control arm: %d/%d done", got, len(control.Results))
	}
	return broken
}
