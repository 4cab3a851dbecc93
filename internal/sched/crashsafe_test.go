package sched

import (
	"fmt"
	"testing"

	"detournet/internal/core"
	"detournet/internal/journal"
	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
)

func csJob(name string) Job {
	return Job{
		Tenant: "t", Client: "ubco", Provider: "gdrive",
		Name: name, Size: 1e6, MD5: rsyncx.Checksum([]byte(name)),
	}
}

// TestControlJournalRecovery pins the replay fold: finished results
// re-seat, pending jobs recover their checkpoints and stable attempt
// IDs, retry spends and cap holds survive, and TakeRecovered hands the
// checkpoint out exactly once.
func TestControlJournalRecovery(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Finished)+len(rec.Pending) != 0 || cj.RecoveredMode() {
		t.Fatal("fresh journal claims recovered state")
	}

	j0, j1, j2 := csJob("a.bin"), csJob("b.bin"), csJob("c.bin")
	cj.NoteSubmit(j0)
	cj.NoteSubmit(j1)
	cj.NoteSubmit(j2)
	cj.NoteAttempt(j0, 1, core.DirectRoute)
	cj.NoteFinish(&Result{Job: j0, Route: core.DirectRoute, Seconds: 2, Attempts: 1})
	cj.NoteAttempt(j1, 2, core.Route{Kind: core.Detour, Via: "edmn1"})
	ck := &core.Checkpoint{
		Hop1Via: "edmn1", Hop1High: 4e5, HasSession: true,
		Session:      sdk.SessionToken{Provider: "gdrive", Ref: "sess-1", Name: j1.Name, Size: j1.Size, Offset: 2e5},
		BytesResumed: 1e5,
	}
	cj.NoteCkpt(j1, ck, 6e5)
	cj.NoteRetry("gdrive")
	cj.NoteRetry("gdrive")
	cj.NoteCap("gdrive", "edmn1", true)
	wantID := cj.AttemptID(j1.Name)
	if wantID == "" {
		t.Fatal("no attempt ID for submitted job")
	}

	cj2, rec2, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !cj2.RecoveredMode() {
		t.Fatal("reopened journal not in recovered mode")
	}
	if len(rec2.Finished) != 1 || rec2.Finished[0].Job.Name != j0.Name || rec2.Finished[0].Err != nil {
		t.Fatalf("recovered finished = %+v", rec2.Finished)
	}
	if len(rec2.Pending) != 2 || rec2.Pending[0].Job.Name != j1.Name || rec2.Pending[1].Job.Name != j2.Name {
		t.Fatalf("recovered pending = %+v", rec2.Pending)
	}
	pj := rec2.Pending[0]
	if !pj.HasCkpt || pj.Ck.Hop1Via != "edmn1" || pj.Ck.Session.Ref != "sess-1" || pj.PriorAttempts != 2 {
		t.Fatalf("recovered checkpoint = %+v", pj)
	}
	restored := pj.Checkpoint()
	if restored.AttemptID != wantID || !restored.HasSession || restored.Hop1High != 4e5 {
		t.Fatalf("reconstituted checkpoint = %+v", restored)
	}
	if rec2.RetrySpent["gdrive"] != 2 {
		t.Fatalf("retry spends = %v", rec2.RetrySpent)
	}
	if rec2.CapsHeld["gdrive|edmn1"] != 1 {
		t.Fatalf("caps held = %v", rec2.CapsHeld)
	}

	// Resubmission reuses the sequence number — the idempotency key is
	// stable across incarnations.
	cj2.NoteSubmit(j1)
	if got := cj2.AttemptID(j1.Name); got != wantID {
		t.Fatalf("attempt ID changed across restart: %q vs %q", got, wantID)
	}
	if got := cj2.TakeRecovered(j1.Name); got == nil || !got.HasCkpt {
		t.Fatalf("TakeRecovered = %+v", got)
	}
	if got := cj2.TakeRecovered(j1.Name); got != nil && (got.HasCkpt || got.PriorAttempts != 0) {
		t.Fatalf("TakeRecovered handed out twice: %+v", got)
	}
}

// TestControlJournalDupFinish pins the crash-between-commit-and-ack
// window: a finish record journaled twice folds to one Result.
func TestControlJournalDupFinish(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	j := csJob("dup.bin")
	cj.NoteSubmit(j)
	res := Result{Job: j, Route: core.DirectRoute, Attempts: 1}
	cj.NoteFinish(&res)
	cj.NoteFinish(&res) // replayed ack: journaled again
	_, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Finished) != 1 || rec.DupFinishes != 1 {
		t.Fatalf("finished=%d dup=%d, want 1/1", len(rec.Finished), rec.DupFinishes)
	}
	if rec.Finished[0].Attempts != 1 {
		t.Fatalf("replayed attempts = %d, want 1 (double-counted)", rec.Finished[0].Attempts)
	}
}

// TestControlJournalCompactEquivalence pins the snapshot contract:
// replay of (snapshot + tail) equals replay of the full log.
func TestControlJournalCompactEquivalence(t *testing.T) {
	devA, devB := journal.NewMemDevice(), journal.NewMemDevice()
	cjA, _, _ := NewControlJournal(devA)
	cjB, _, _ := NewControlJournal(devB)
	cjA.SetCompactEvery(2)
	cjB.SetCompactEvery(0)
	for _, cj := range []*ControlJournal{cjA, cjB} {
		for i := 0; i < 5; i++ {
			cj.NoteSubmit(csJob(fmt.Sprintf("crash-%03d.bin", i)))
		}
		for i := 0; i < 4; i++ {
			j := csJob(fmt.Sprintf("crash-%03d.bin", i))
			cj.NoteAttempt(j, 1, core.DirectRoute)
			cj.NoteFinish(&Result{Job: j, Route: core.DirectRoute, Attempts: 1})
		}
		cj.NoteRetry("gdrive")
		ck := &core.Checkpoint{Hop1Via: "vncv1", Hop1High: 5e5}
		cj.NoteCkpt(csJob(fmt.Sprintf("crash-%03d.bin", 4)), ck, 5e5)
	}
	if cjA.Compactions() != 2 {
		t.Fatalf("compactions = %d, want 2", cjA.Compactions())
	}
	if devA.Size() >= devB.Size() {
		t.Fatalf("compacted device (%d B) not smaller than raw log (%d B)", devA.Size(), devB.Size())
	}
	_, recA, _ := NewControlJournal(devA)
	_, recB, _ := NewControlJournal(devB)
	if len(recA.Finished) != len(recB.Finished) || len(recA.Finished) != 4 {
		t.Fatalf("finished: compacted %d vs raw %d", len(recA.Finished), len(recB.Finished))
	}
	for i := range recA.Finished {
		if recA.Finished[i].Job.Name != recB.Finished[i].Job.Name {
			t.Fatalf("finished[%d]: %s vs %s", i, recA.Finished[i].Job.Name, recB.Finished[i].Job.Name)
		}
	}
	if len(recA.Pending) != 1 || len(recB.Pending) != 1 ||
		recA.Pending[0].Job.Name != recB.Pending[0].Job.Name ||
		!recA.Pending[0].HasCkpt || recA.Pending[0].Ck.Hop1Via != "vncv1" {
		t.Fatalf("pending: compacted %+v vs raw %+v", recA.Pending, recB.Pending)
	}
	if recA.RetrySpent["gdrive"] != recB.RetrySpent["gdrive"] {
		t.Fatalf("retry spends: %v vs %v", recA.RetrySpent, recB.RetrySpent)
	}
}

// TestControlJournalTornKill pins the torn-append crash point: the
// record under the pen is torn mid-write, the control plane dies with
// it, and replay truncates exactly that tail.
func TestControlJournalTornKill(t *testing.T) {
	dev := journal.NewMemDevice()
	cj, _, _ := NewControlJournal(dev)
	cj.NoteSubmit(csJob("safe.bin"))
	cj.TornJournal(true)
	cj.NoteSubmit(csJob("torn.bin"))
	if !cj.Killed() {
		t.Fatal("torn append did not kill the control plane")
	}
	cj.NoteSubmit(csJob("ghost.bin")) // dead journal: must not land
	_, rec, err := NewControlJournal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("replay truncated nothing")
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Job.Name != "safe.bin" {
		t.Fatalf("recovered pending = %+v, want only safe.bin", rec.Pending)
	}
}
