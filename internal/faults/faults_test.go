package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
)

func sleepWorkload(w *scenario.World, sec float64) {
	w.RunWorkload("sleep", func(p *simproc.Proc) { p.Sleep(simclock.Duration(sec)) })
}

func TestRecurrenceMath(t *testing.T) {
	sp := &state{Spec: Spec{Start: 10, Duration: 5, Period: 20, Repeat: 2}}
	cases := []struct {
		t      float64
		active bool
		next   float64
	}{
		{0, false, 10},
		{10, true, 15},
		{12, true, 15},
		{15, false, 30},
		{30, true, 35},
		{35, false, math.Inf(1)},
		{100, false, math.Inf(1)},
	}
	for _, c := range cases {
		active, next := sp.stateAt(c.t)
		if active != c.active || next != c.next {
			t.Errorf("stateAt(%v) = (%v, %v), want (%v, %v)", c.t, active, next, c.active, c.next)
		}
	}

	oneShot := &state{Spec: Spec{Start: 3, Duration: 2}}
	if a, n := oneShot.stateAt(4); !a || n != 5 {
		t.Errorf("one-shot stateAt(4) = (%v, %v)", a, n)
	}
	if a, n := oneShot.stateAt(5); a || !math.IsInf(n, 1) {
		t.Errorf("one-shot stateAt(5) = (%v, %v)", a, n)
	}
}

func TestLinkFlapTransitions(t *testing.T) {
	w := scenario.Build(1)
	inj := NewInjector(w, 42, Spec{
		Kind: LinkDown, From: "vncv1", To: "edmn1",
		Start: 10, Duration: 5, Period: 20, Repeat: 2,
	})
	sleepWorkload(w, 100)
	want := []string{
		"t=10.000 link-down vncv1<->edmn1 active=true",
		"t=15.000 link-down vncv1<->edmn1 active=false",
		"t=30.000 link-down vncv1<->edmn1 active=true",
		"t=35.000 link-down vncv1<->edmn1 active=false",
	}
	got := inj.Transitions()
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %q, want %q", i, got[i], want[i])
		}
	}
	e, _ := w.Graph.Edge("vncv1", "edmn1")
	if e.Down() {
		t.Fatal("edge still down after the last window closed")
	}
}

func TestFaultStatePersistsBetweenWorkloads(t *testing.T) {
	w := scenario.Build(1)
	NewInjector(w, 1, Spec{Kind: LinkDown, From: "vncv1", To: "edmn1", Start: 5, Duration: 1e6})
	sleepWorkload(w, 10)
	e, _ := w.Graph.Edge("vncv1", "edmn1")
	if !e.Down() {
		t.Fatal("edge should be down after the window opened")
	}
	// A new workload must see the fault still applied, and the pending
	// recovery event must not leak into the runner between workloads.
	sleepWorkload(w, 1)
	if !e.Down() {
		t.Fatal("fault state did not persist across workloads")
	}
}

func TestProviderOutageWindow(t *testing.T) {
	w := scenario.Build(1)
	NewInjector(w, 1, Spec{Kind: ProviderOutage, Provider: scenario.GoogleDrive, Start: 0, Duration: 50})
	client := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
	var err error
	w.RunWorkload("during", func(p *simproc.Proc) {
		_, err = core.DirectUpload(p, client, "during.bin", 1e6, "")
	})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("upload during outage: err = %v, want 503", err)
	}
	sleepWorkload(w, 60)
	w.RunWorkload("after", func(p *simproc.Proc) {
		_, err = core.DirectUpload(p, client, "after.bin", 1e6, "")
	})
	if err != nil {
		t.Fatalf("upload after outage: %v", err)
	}
	if w.Services[scenario.GoogleDrive].InjectedFaults == 0 {
		t.Fatal("service recorded no injected faults")
	}
}

func TestDTNCrashAndRestart(t *testing.T) {
	w := scenario.Build(1)
	NewInjector(w, 1, Spec{Kind: DTNCrash, DTN: scenario.UAlberta, Start: 0, Duration: 30})
	dc := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
	var err error
	w.RunWorkload("during", func(p *simproc.Proc) {
		_, err = dc.Rsync.Stat(p, "x.bin")
	})
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("stat during crash: err = %v, want connection refused", err)
	}
	sleepWorkload(w, 40)
	w.RunWorkload("after", func(p *simproc.Proc) {
		_, err = dc.Rsync.Stat(p, "x.bin")
	})
	if err != nil {
		t.Fatalf("stat after restart: %v", err)
	}
}

// chaosSummary runs a small canned-schedule chaos scenario and renders
// everything observable — per-transfer outcomes, the transition log,
// the final clock — into one string.
func chaosSummary(seed int64) string {
	w := scenario.Build(seed)
	inj := NewInjector(w, seed, CannedSchedule()...)
	dc := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
	gd := w.NewSDKClient(scenario.UBC, scenario.GoogleDrive)
	var b strings.Builder
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d.bin", i)
		ck := &core.Checkpoint{}
		var rep core.Report
		var err error
		w.RunWorkload(name, func(p *simproc.Proc) {
			if i%2 == 0 {
				rep, err = dc.UploadResumable(p, scenario.GoogleDrive, name, 40e6, "", ck)
			} else {
				rep, err = core.DirectUploadResumable(p, gd, name, 30e6, "", ck)
			}
		})
		fmt.Fprintf(&b, "%s err=%v total=%.6f resumed=%.0f rewritten=%.0f\n",
			name, err, rep.Total, ck.BytesResumed, ck.BytesRewritten)
	}
	for _, tr := range inj.Transitions() {
		b.WriteString(tr + "\n")
	}
	fmt.Fprintf(&b, "clock=%.6f injected=%d\n", float64(w.Eng.Now()), inj.Injected)
	return b.String()
}

// TestChaosDeterminism is the regression gate for reproducible chaos:
// the same seed and the same fault schedule must produce a
// byte-identical run summary.
func TestChaosDeterminism(t *testing.T) {
	a, b := chaosSummary(7), chaosSummary(7)
	if a != b {
		t.Fatalf("same seed, different chaos runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}

// TestCrashControlHooks pins the control-plane seam: a journal-targeted
// TornWrite toggles torn-tail injection on its window edges, and a
// journal-targeted BitRot flips exactly Flips bytes from the dedicated
// rot stream.
func TestCrashControlHooks(t *testing.T) {
	w := scenario.Build(1)
	var torn []bool
	flips := 0
	inj := NewInjector(w, 42,
		Spec{Kind: TornWrite, Journal: true, Start: 20, Duration: 5},
		Spec{Kind: BitRot, Journal: true, Start: 30, Duration: 2, Flips: 4},
	)
	inj.SetCrashControl(&CrashControl{
		TornJournal: func(active bool) { torn = append(torn, active) },
		FlipJournal: func(*rand.Rand) { flips++ },
	})
	sleepWorkload(w, 100)
	if len(torn) != 2 || !torn[0] || torn[1] {
		t.Fatalf("torn toggles = %v, want [true false]", torn)
	}
	if flips != 4 {
		t.Fatalf("journal flips = %d, want 4", flips)
	}
}

// TestLinkDegradeIsSilent pins the gray link fault the grayfail
// schedule plays: for its window both directions of the edge run at
// CapacityFactor of their capacity, the exact prior capacity comes
// back when it closes, nothing reaches the route bus, and a transfer
// crossing the edge through both window edges slows down but is never
// cut. A factor that would not degrade (0 or 1) is rejected up front.
func TestLinkDegradeIsSilent(t *testing.T) {
	const from, to, factor = "vncv1", "edmn1", 0.5
	degrade := Spec{Kind: LinkDegrade, From: from, To: to, CapacityFactor: factor, Start: 2, Duration: 4}
	capacities := func(w *scenario.World) [2]float64 {
		ab, _ := w.Graph.Edge(from, to)
		ba, _ := w.Graph.Edge(to, from)
		return [2]float64{ab.Link.Capacity, ba.Link.Capacity}
	}
	type run struct {
		rep                core.Report
		ck                 core.Checkpoint
		err                error
		before, mid, after [2]float64
		published          int
	}
	// upload sends 40 MB from UBC through the UAlberta DTN, whose first
	// hop crosses vncv1-edmn1, reading the edge's capacities before,
	// mid-window and after.
	upload := func(specs ...Spec) run {
		var r run
		w := scenario.Build(1)
		defer w.Close()
		if len(specs) > 0 {
			NewInjector(w, 1, specs...)
		}
		w.RouteBus.Subscribe(func(bgppol.Event) { r.published++ })
		dc := w.NewDetourClient(scenario.UBC, scenario.UAlberta)
		r.before = capacities(w)
		w.RunWorkload("upload", func(p *simproc.Proc) {
			p.Runner().Go("probe", func(q *simproc.Proc) {
				q.Sleep(simclock.Duration(degrade.Start + degrade.Duration/2))
				r.mid = capacities(w)
			})
			r.rep, r.err = dc.UploadResumable(p, scenario.GoogleDrive, "gray.bin", 40e6, "", &r.ck)
		})
		r.after = capacities(w)
		return r
	}

	clean, gray := upload(), upload(degrade)
	if clean.err != nil {
		t.Fatalf("fault-free upload: %v", clean.err)
	}
	if gray.err != nil || gray.ck.BytesRewritten != 0 || gray.ck.BytesResumed != 0 {
		t.Fatalf("upload across the window: err=%v rewritten=%.0f resumed=%.0f; a degrade must cut no flow",
			gray.err, gray.ck.BytesRewritten, gray.ck.BytesResumed)
	}
	if gray.rep.Total <= clean.rep.Total || gray.rep.Total < degrade.Start+degrade.Duration {
		t.Fatalf("degraded upload took %.3fs (clean %.3fs); want it slower, and spanning the window",
			gray.rep.Total, clean.rep.Total)
	}
	if want := [2]float64{gray.before[0] * factor, gray.before[1] * factor}; gray.mid != want {
		t.Fatalf("capacities mid-window = %v, want %v", gray.mid, want)
	}
	if gray.after != gray.before {
		t.Fatalf("capacities after the window = %v, want the prior %v", gray.after, gray.before)
	}
	if gray.published != 0 {
		t.Fatalf("degrade published %d route-bus events, want none", gray.published)
	}

	for _, f := range []float64{0, 1} {
		sp := degrade
		sp.CapacityFactor = f
		func() {
			w := scenario.Build(1)
			defer w.Close()
			defer func() {
				if recover() == nil {
					t.Errorf("CapacityFactor %v: NewInjector did not panic", f)
				}
			}()
			NewInjector(w, 1, sp)
		}()
	}
}
