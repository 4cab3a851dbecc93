package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"detournet/internal/core"
	"detournet/internal/journal"
	"detournet/internal/sdk"
)

// randFoldJob draws a job from a small name pool, so resubmissions and
// duplicate finishes of one name are common.
func randFoldJob(rng *rand.Rand) Job {
	j := csJob(fmt.Sprintf("f%02d.bin", rng.Intn(12)))
	j.Size = 1 + rng.Float64()*1e8
	j.Priority = rng.Intn(3)
	j.Deadline = rng.Float64() * 100
	switch rng.Intn(3) {
	case 1:
		j.AltProviders = []string{}
	case 2:
		j.AltProviders = []string{"dropbox", "onedrive"}[:1+rng.Intn(2)]
	}
	return j
}

func randFoldRoute(rng *rand.Rand) core.Route {
	if rng.Intn(2) == 0 {
		return core.DirectRoute
	}
	return core.Route{Kind: core.Detour, Via: []string{"edmn1", "wash1"}[rng.Intn(2)]}
}

// TestLiveFoldMatchesReplay: the state a journal folds live, record by
// record as it appends, equals what replaying its device rebuilds —
// through duplicate finishes, resubmissions, compaction at two cadences
// and none, torn-append kills and restarts on the same device.
func TestLiveFoldMatchesReplay(t *testing.T) {
	var compactions, dups, kills, restarts int
	for _, every := range []int{0, 2, 16} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(every)))
			dev := journal.NewMemDevice()
			cj, _, err := NewControlJournal(dev)
			if err != nil {
				t.Fatal(err)
			}
			cj.SetCompactEvery(every)
			for step := 0; step < 300; step++ {
				j := randFoldJob(rng)
				switch op := rng.Intn(20); {
				case op < 4:
					cj.NoteSubmit(j)
					if len(j.AltProviders) > 0 {
						j.AltProviders[0] = "scribbled" // the journal must hold its own copy
					}
				case op < 7:
					cj.NoteAttempt(j, 1+rng.Intn(4), randFoldRoute(rng))
				case op < 10:
					ck := &core.Checkpoint{
						Hop1Via: "edmn1", Hop1High: rng.Float64() * j.Size,
						HasSession: rng.Intn(2) == 0, Hop2High: rng.Float64() * j.Size,
						Session:        sdk.SessionToken{Provider: j.Provider, Ref: fmt.Sprint("s", rng.Intn(9)), Name: j.Name, Size: j.Size, Offset: rng.Float64() * j.Size},
						BytesResumed:   rng.Float64() * 1e6,
						BytesRewritten: rng.Float64() * 1e5,
						ChunkRepairs:   rng.Intn(3),
					}
					cj.NoteCkpt(j, ck, rng.Float64()*j.Size)
				case op < 12:
					cj.NoteCap(j.Provider, randFoldRoute(rng).Via, rng.Intn(3) > 0)
				case op < 13:
					cj.NoteRetry([]string{"gdrive", "dropbox"}[rng.Intn(2)])
				case op < 14:
					cj.NoteLanes(j.Name, []string{"direct", "edmn1"}, []int{rng.Intn(8), rng.Intn(8)})
				case op < 18:
					res := &Result{Job: j, Route: randFoldRoute(rng), Seconds: rng.Float64() * 500,
						Attempts: 1 + rng.Intn(3), CacheHit: rng.Intn(2) == 0, Reroutes: rng.Intn(2),
						Parked: rng.Float64(), Late: rng.Intn(5) == 0}
					if rng.Intn(4) == 0 {
						res.Err = fmt.Errorf("attempt %d: provider 503", res.Attempts)
					}
					cj.NoteFinish(res)
				case op < 19:
					if rng.Intn(4) == 0 {
						cj.Arm(CrashTornAppend, 1+rng.Intn(5))
					}
				default:
					// A restart: a new incarnation replays the device and
					// folds on from there.
					compactions += cj.Compactions()
					if cj.Killed() {
						kills++
					}
					restarts++
					if cj, _, err = NewControlJournal(dev); err != nil {
						t.Fatal(err)
					}
					cj.SetCompactEvery(every)
				}
			}
			compactions += cj.Compactions()
			live := cj.state.recovered()
			dups += live.DupFinishes
			_, replayed, err := NewControlJournal(dev)
			if err != nil {
				t.Fatal(err)
			}
			replayed.Records, replayed.TruncatedBytes = 0, 0
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("compact every %d, seed %d: live fold\n%+v\nreplay fold\n%+v", every, seed, live, replayed)
			}
		}
	}
	if compactions == 0 || dups == 0 || kills == 0 || restarts == 0 {
		t.Fatalf("draws too tame: %d compactions, %d duplicate finishes, %d kills, %d restarts",
			compactions, dups, kills, restarts)
	}
}

// TestSubmitRejectsInvalidUTF8: the journal encodes jobs as JSON, which
// rewrites invalid UTF-8 to U+FFFD, so a job string that is not UTF-8
// would be journaled under a name its later records never match. Submit
// refuses such jobs before anything is journaled.
func TestSubmitRejectsInvalidUTF8(t *testing.T) {
	cj, _, err := NewControlJournal(journal.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Executor: newCountingExec(0), Planner: &staticPlanner{route: core.DirectRoute},
		Sleep: noSleep, Journal: cj})
	s.Start()
	defer s.Close()
	bad := "bad\xff"
	for field, mut := range map[string]func(*Job){
		"tenant":             func(j *Job) { j.Tenant = bad },
		"client":             func(j *Job) { j.Client = bad },
		"provider":           func(j *Job) { j.Provider = bad },
		"name":               func(j *Job) { j.Name = bad },
		"MD5":                func(j *Job) { j.MD5 = bad },
		"alternate provider": func(j *Job) { j.AltProviders = []string{"dropbox", bad} },
	} {
		j := csJob("utf8.bin")
		mut(&j)
		err := s.Submit(j)
		if err == nil {
			t.Fatalf("%s %q accepted: err = %v", field, bad, err)
		}
		if want := "a " + field + " that is not valid UTF-8"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to name the field", field, err)
		}
	}
	if n := cj.Appended(); n != 0 {
		t.Fatalf("rejected jobs journaled %d records", n)
	}
	ok := csJob("héllo.bin")
	if err := s.Submit(ok); err != nil {
		t.Fatalf("valid UTF-8 job rejected: %v", err)
	}
	s.Drain()
	if cj.AttemptID(ok.Name) == "" {
		t.Fatal("accepted job has no idempotency key")
	}
}

// BenchmarkControlJournalAppend: one op is one job's journal lifecycle
// on a MemDevice at the default compaction cadence — submit, attempt,
// cap acquire and release, 8 checkpoints, finish. A compaction snapshot
// keeps every finished job, so a fresh journal starts every 64 jobs and
// the snapshot stays the size a 64-job run compacts.
func BenchmarkControlJournalAppend(b *testing.B) {
	const perJournal = 64
	jobs := make([]Job, perJournal)
	for i := range jobs {
		jobs[i] = csJob(fmt.Sprintf("bench-%02d.bin", i))
	}
	route := core.Route{Kind: core.Detour, Via: "edmn1"}
	var cj *ControlJournal
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perJournal == 0 {
			cj, _, _ = NewControlJournal(journal.NewMemDevice())
		}
		j := jobs[i%perJournal]
		cj.NoteSubmit(j)
		cj.NoteAttempt(j, 1, route)
		cj.NoteCap(j.Provider, route.Via, true)
		ck := &core.Checkpoint{Hop1Via: route.Via, HasSession: true,
			Session: sdk.SessionToken{Provider: j.Provider, Ref: "sess", Name: j.Name, Size: j.Size}}
		for k := 1; k <= 8; k++ {
			ck.Hop1High = j.Size * float64(k) / 8
			ck.Hop2High = j.Size * float64(k-1) / 8
			cj.NoteCkpt(j, ck, ck.Hop1High)
		}
		cj.NoteCap(j.Provider, route.Via, false)
		cj.NoteFinish(&Result{Job: j, Route: route, Seconds: 12.5, Attempts: 1})
	}
}
