package health

import (
	"strings"
	"testing"
)

// clock is a hand-advanced virtual clock for deterministic tests.
type clock struct{ now float64 }

func (c *clock) fn() func() float64 { return func() float64 { return c.now } }

// newTracker builds a tracker on a hand clock.
func newTracker(c *clock) *Tracker { return New(Options{Now: c.fn()}) }

func TestBaselineLearning(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	if _, ok := tr.Baseline(ClassRoute, "r"); ok {
		t.Fatal("baseline exists before any observation")
	}
	tr.ObserveTransfer(ClassRoute, "r", 10e6, 10) // 1 MB/s
	if b, ok := tr.Baseline(ClassRoute, "r"); !ok || b != 1e6 {
		t.Fatalf("baseline = %v,%v, want 1e6", b, ok)
	}
	// Zero or negative inputs are ignored, not folded in as zero rates.
	tr.ObserveTransfer(ClassRoute, "r", 0, 10)
	tr.ObserveTransfer(ClassRoute, "r", 10e6, 0)
	if b, _ := tr.Baseline(ClassRoute, "r"); b != 1e6 {
		t.Fatalf("degenerate observations moved the baseline to %v", b)
	}
}

// TestOutlierEjection: an entity sustained below outlierFrac of the
// peer median for outlierStreak observations goes to probation and gets
// the probation weight; its outlier samples must not drag its own
// baseline down while it is still judged healthy.
func TestOutlierEjection(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	tr.ObserveTransfer(ClassRoute, "fast", 10e6, 1) // peer baseline 10 MB/s
	tr.ObserveTransfer(ClassRoute, "slow", 10e6, 1) // healthy once
	base0, _ := tr.Baseline(ClassRoute, "slow")

	// outlierFrac 0.4 of median 10 MB/s = 4 MB/s; 1 MB/s is an
	// outlier. Streak must reach 3.
	for i := 0; i < 2; i++ {
		tr.ObserveTransfer(ClassRoute, "slow", 1e6, 1)
		if tr.Probation(ClassRoute, "slow") {
			t.Fatalf("ejected after %d outliers, want 3", i+1)
		}
	}
	if b, _ := tr.Baseline(ClassRoute, "slow"); b != base0 {
		t.Errorf("outlier samples moved a healthy entity's baseline: %v -> %v", base0, b)
	}
	c.now = 100
	tr.ObserveTransfer(ClassRoute, "slow", 1e6, 1)
	if !tr.Probation(ClassRoute, "slow") {
		t.Fatal("3-outlier streak did not eject")
	}
	if w := tr.Weight(ClassRoute, "slow"); w != 0.1 {
		t.Errorf("probation weight = %v, want 0.1", w)
	}
	if w := tr.Weight(ClassRoute, "fast"); w != 1 {
		t.Errorf("healthy weight = %v, want 1", w)
	}
	if trs := tr.Transitions(); len(trs) != 1 || !strings.Contains(trs[0], "t=100.000 route slow healthy->probation") {
		t.Errorf("transitions = %v", trs)
	}
	// A healthy observation resets the streak: no sticky ejection from
	// stale history.
	tr.ObserveTransfer(ClassRoute, "fast", 1e6, 1)
	tr.ObserveTransfer(ClassRoute, "fast", 10e6, 1)
	if tr.Probation(ClassRoute, "fast") {
		t.Fatal("single outlier ejected after a healthy reset")
	}
}

// TestStallCountsDouble: a watchdog abort is the strongest outlier
// signal, advancing the streak by two — so two stalls eject where three
// slow observations would be needed.
func TestStallCountsDouble(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	tr.NoteStall(ClassDTN, "sick")
	if tr.Probation(ClassDTN, "sick") {
		t.Fatal("one stall ejected (streak 2 < 3)")
	}
	tr.NoteStall(ClassDTN, "sick")
	if !tr.Probation(ClassDTN, "sick") {
		t.Fatal("two stalls (streak 4) did not eject")
	}
}

// TestCanaryBackoffAndReadmission walks the full probation round trip:
// canary slots are rate-limited, failed canaries back off exponentially
// with a cap, and canarySuccesses healthy observations re-admit.
func TestCanaryBackoffAndReadmission(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	tr.ObserveTransfer(ClassRoute, "peer", 10e6, 1)
	c.now = 10
	// Three slow observations eject. (Ejection via NoteStall would also
	// prime canaryMiss — its second judge lands with probation already
	// set — so this test takes the plain-outlier road.)
	for i := 0; i < 3; i++ {
		tr.ObserveTransfer(ClassRoute, "gray", 1e6, 1)
	}
	if !tr.Probation(ClassRoute, "gray") {
		t.Fatal("setup: not on probation")
	}
	if tr.CanaryTake(ClassRoute, "peer") {
		t.Fatal("canary granted for a healthy entity")
	}
	// Ejection primes lastCanary: no canary inside the first interval.
	c.now = 69
	if tr.CanaryTake(ClassRoute, "gray") {
		t.Fatal("canary granted before the first interval elapsed")
	}
	c.now = 70
	if !tr.CanaryTake(ClassRoute, "gray") {
		t.Fatal("canary denied after a full interval")
	}
	if tr.CanaryTake(ClassRoute, "gray") {
		t.Fatal("second canary granted inside the same interval")
	}

	// The canary comes back sick: the next slot needs 2 intervals, the
	// one after 4, then 8 — and the backoff caps at 8.
	for _, wait := range []float64{120, 240, 480, 480} {
		tr.ObserveTransfer(ClassRoute, "gray", 1e6, 1) // outlier: canaryMiss++
		granted := c.now
		c.now = granted + wait - 1
		if tr.CanaryTake(ClassRoute, "gray") {
			t.Fatalf("canary after %v s, want backoff of %v", wait-1, wait)
		}
		c.now = granted + wait
		if !tr.CanaryTake(ClassRoute, "gray") {
			t.Fatalf("canary denied after full backoff %v", wait)
		}
	}

	// Two healthy canaries re-admit; the weight recovers.
	tr.ObserveTransfer(ClassRoute, "gray", 10e6, 1)
	if !tr.Probation(ClassRoute, "gray") {
		t.Fatal("re-admitted after one healthy canary, want two")
	}
	tr.ObserveTransfer(ClassRoute, "gray", 10e6, 1)
	if tr.Probation(ClassRoute, "gray") {
		t.Fatal("two healthy canaries did not re-admit")
	}
	if w := tr.Weight(ClassRoute, "gray"); w != 1 {
		t.Errorf("weight after re-admission = %v, want 1", w)
	}
}

// TestBudgetArithmetic pins the watchdog budget formula: defaultBudget
// unlearned, size/(baseline·floorFrac)+grace learned, minBudget floor —
// and the probation tightening (half budget, half floor) that keeps
// canary probes cheap.
func TestBudgetArithmetic(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	if b := tr.Budget(ClassRoute, "r", 100e6); b != 600 {
		t.Errorf("unlearned budget = %v, want defaultBudget 600", b)
	}
	tr.ObserveTransfer(ClassRoute, "r", 10e6, 10) // baseline 1 MB/s
	// 100 MB at 0.25 MB/s = 400 s, + 30 grace.
	if b := tr.Budget(ClassRoute, "r", 100e6); b != 430 {
		t.Errorf("learned budget = %v, want 430", b)
	}
	// 10 MB would be 40+30=70: floored at minBudget 90.
	if b := tr.Budget(ClassRoute, "r", 10e6); b != 90 {
		t.Errorf("small-file budget = %v, want minBudget 90", b)
	}
	tr.NoteStall(ClassRoute, "r")
	tr.NoteStall(ClassRoute, "r")
	if !tr.Probation(ClassRoute, "r") {
		t.Fatal("setup: not on probation")
	}
	if b := tr.Budget(ClassRoute, "r", 100e6); b != 215 {
		t.Errorf("probation budget = %v, want 430/2", b)
	}
	if b := tr.Budget(ClassRoute, "r", 10e6); b != 45 {
		t.Errorf("probation small-file budget = %v, want minBudget/2", b)
	}
}

// TestRetryBudgetEconomics: retries spend whole tokens that successes
// earn back at retryEarn, exhaustion parks with the retryAfter hint,
// and recovery re-arms the exhaustion transition log.
func TestRetryBudgetEconomics(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	for i := 0; i < 8; i++ {
		if ok, _ := tr.AllowRetry("P"); !ok {
			t.Fatalf("retry %d denied with tokens in the bucket", i+1)
		}
	}
	ok, after := tr.AllowRetry("P")
	if ok || after != 30 {
		t.Fatalf("exhausted bucket: ok=%v after=%v, want false/30", ok, after)
	}
	if trs := tr.Transitions(); len(trs) != 1 || !strings.Contains(trs[0], "budget P exhausted") {
		t.Errorf("transitions = %v, want one exhaustion line", trs)
	}
	// 0.5 tokens is still not a whole retry.
	tr.NoteSuccess("P")
	if ok, _ := tr.AllowRetry("P"); ok {
		t.Fatal("half a token funded a retry")
	}
	tr.NoteSuccess("P")
	tr.NoteSuccess("P") // 1.5 tokens
	if ok, _ := tr.AllowRetry("P"); !ok {
		t.Fatal("earned tokens did not fund a retry")
	}
	// The bucket never overfills past retryBurst, and a success earns
	// nothing once it is full.
	earned := 0.0
	for i := 0; i < 50; i++ {
		earned += tr.NoteSuccess("P")
	}
	if earned != 7.5 {
		t.Errorf("successes earned %g tokens from 0.5 to the burst of 8, want 7.5", earned)
	}
	bs := tr.RetryBudgets()
	if len(bs) != 1 || bs[0].Tokens != 8 {
		t.Fatalf("budgets = %+v, want tokens capped at burst 8", bs)
	}
	if bs[0].Spent != 9 || bs[0].Denied != 0 {
		t.Errorf("spent=%d denied=%d, want 9 spent and denied reset on recovery", bs[0].Spent, bs[0].Denied)
	}
}

// TestSnapshotDeterministic: the health table sorts by class then name.
func TestSnapshotDeterministic(t *testing.T) {
	c := &clock{}
	tr := newTracker(c)
	tr.ObserveTransfer(ClassRoute, "b", 1e6, 1)
	tr.ObserveTransfer(ClassDTN, "z", 1e6, 1)
	tr.ObserveTransfer(ClassRoute, "a", 1e6, 1)
	snap := tr.Snapshot()
	want := []string{"dtn|z", "route|a", "route|b"}
	if len(snap) != len(want) {
		t.Fatalf("snapshot rows = %d, want %d", len(snap), len(want))
	}
	for i, e := range snap {
		if e.Class+"|"+e.Entity != want[i] {
			t.Errorf("row %d = %s|%s, want %s", i, e.Class, e.Entity, want[i])
		}
	}
}
