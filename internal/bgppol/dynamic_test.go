package bgppol

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// clockAt returns a settable virtual clock for driving Dynamic by hand.
func clockAt(t0 float64) (func() float64, func(float64)) {
	now := t0
	return func() float64 { return now }, func(v float64) { now = v }
}

func TestWithdrawBlackholeThenNoRoute(t *testing.T) {
	now, setNow := clockAt(0)
	d := NewDynamic(diamond(), now, rand.New(rand.NewSource(1)), 2, 12)

	if _, err := d.DomainPathAt("stub1", "stub2"); err != nil {
		t.Fatalf("pre-churn path: %v", err)
	}
	if err := d.WithdrawSession("stub2", "t2"); err != nil {
		t.Fatal(err)
	}

	// stub1 and t1 are stale (their delay is >= 2s): stub1 still
	// forwards towards t2, whose new RIB has no route — a transient
	// blackhole, not a clean no-route.
	setNow(1)
	_, err := d.DomainPathAt("stub1", "stub2")
	if !errors.Is(err, ErrBlackhole) {
		t.Fatalf("mid-convergence err = %v, want ErrBlackhole", err)
	}

	// Once everyone has adopted, the source itself knows there is no
	// route: the anomaly window has closed.
	setNow(13)
	_, err = d.DomainPathAt("stub1", "stub2")
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("converged err = %v, want ErrNoRoute", err)
	}
}

func TestAnnounceRestoresRelationship(t *testing.T) {
	now, setNow := clockAt(0)
	d := NewDynamic(diamond(), now, rand.New(rand.NewSource(1)), 2, 12)
	if err := d.WithdrawSession("t2", "stub2"); err != nil {
		t.Fatal(err)
	}
	if d.SessionUp("stub2", "t2") {
		t.Fatal("session up after withdraw")
	}
	if !d.SessionKnown("stub2", "t2") {
		t.Fatal("withdrawn session should stay known")
	}

	setNow(20)
	if err := d.AnnounceSession("stub2", "t2"); err != nil {
		t.Fatal(err)
	}
	if !d.SessionUp("stub2", "t2") {
		t.Fatal("session down after announce")
	}
	if d.Current().Relationship("stub2", "t2") != RelCustomer {
		t.Fatalf("restored relationship = %v, want the original customer link",
			d.Current().Relationship("stub2", "t2"))
	}

	// stub1 is stale again: its RIB predates the announce, so the
	// destination is unreachable from its point of view.
	setNow(21)
	if _, err := d.DomainPathAt("stub1", "stub2"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("pre-adoption err = %v, want ErrNoRoute", err)
	}
	setNow(33)
	path, err := d.DomainPathAt("stub1", "stub2")
	if err != nil {
		t.Fatalf("converged path: %v", err)
	}
	want := []string{"stub1", "t1", "t2", "stub2"}
	if fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

// Mixed-version RIBs can form a genuine forwarding loop: b's stale best
// route to dest runs through a, while a's post-withdraw best runs back
// through b. The walk must die of TTL expiry, not spin.
func TestConvergenceForwardingLoop(t *testing.T) {
	p := NewPolicy()
	p.MustAddCustomerProvider("dest", "a") // a's old best: direct customer
	p.MustAddCustomerProvider("dest", "d")
	p.MustAddCustomerProvider("a", "b") // b's old best: via customer a
	p.MustAddCustomerProvider("b", "d") // b's new best: via provider d

	now, setNow := clockAt(0)
	d := NewDynamic(p, now, rand.New(rand.NewSource(1)), 2, 12)
	if err := d.WithdrawSession("dest", "a"); err != nil {
		t.Fatal(err)
	}
	// a (an endpoint) adopted instantly: its best is now via provider b.
	// b is stale: its best is still via customer a.
	setNow(1)
	_, err := d.DomainPathAt("b", "dest")
	if !errors.Is(err, ErrLoop) {
		t.Fatalf("mid-convergence err = %v, want ErrLoop", err)
	}
	if err != nil && !strings.Contains(err.Error(), "ttl expired") {
		t.Fatalf("loop error %q should carry the ttl-expired substring", err)
	}
	// Converged: b hears about the withdraw and routes via d.
	setNow(13)
	path, err := d.DomainPathAt("b", "dest")
	if err != nil {
		t.Fatalf("converged path: %v", err)
	}
	want := []string{"b", "d", "dest"}
	if fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestConvergenceScheduleDeterministic(t *testing.T) {
	runOnce := func(seed int64) string {
		now, setNow := clockAt(0)
		d := NewDynamic(diamond(), now, rand.New(rand.NewSource(seed)), 2, 12)
		d.WithdrawSession("t1", "t2")
		setNow(30)
		d.AnnounceSession("t1", "t2")
		var sb strings.Builder
		for _, ev := range d.Events() {
			fmt.Fprintln(&sb, ev)
		}
		return sb.String()
	}
	if runOnce(7) != runOnce(7) {
		t.Fatal("same seed produced different convergence schedules")
	}
	if runOnce(7) == runOnce(8) {
		t.Fatal("different seeds produced identical convergence schedules")
	}
}

func TestBusFanout(t *testing.T) {
	now, _ := clockAt(0)
	d := NewDynamic(diamond(), now, rand.New(rand.NewSource(1)), 2, 12)
	bus := NewBus()
	d.AttachBus(bus)
	var got []Event
	bus.Subscribe(func(ev Event) { got = append(got, ev) })
	bus.Subscribe(func(Event) {}) // a second subscriber must not starve the first
	if err := d.WithdrawSession("t1", "t2"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != EventWithdraw || got[0].DomainA != "t1" {
		t.Fatalf("subscriber saw %v, want one t1~t2 withdraw", got)
	}
	if got[0].ConvergedBy < 2 {
		t.Fatalf("ConvergedBy = %.2f, want >= min delay", got[0].ConvergedBy)
	}
}

// TestConverging: a session converges from its withdraw until that
// withdraw's ConvergedBy, whichever order its domains are named in; an
// announce ends the window, and a pair with no event never converges.
func TestConverging(t *testing.T) {
	now, setNow := clockAt(10)
	d := NewDynamic(diamond(), now, rand.New(rand.NewSource(1)), 2, 12)
	if err := d.WithdrawSession("stub2", "t2"); err != nil {
		t.Fatal(err)
	}
	if err := d.WithdrawSession("stub1", "t1"); err != nil {
		t.Fatal(err)
	}
	setNow(30)
	if err := d.AnnounceSession("stub1", "t1"); err != nil {
		t.Fatal(err)
	}
	// The endpoints adopt at once, every other domain 2-12 s later.
	by := d.Events()[0].ConvergedBy
	cases := []struct {
		name string
		a, b string
		now  float64
		want bool
	}{
		{"withdraw", "stub2", "t2", 11, true},
		{"reversed order", "t2", "stub2", 11, true},
		{"just before the horizon", "stub2", "t2", by - 1e-9, true},
		{"horizon reached", "stub2", "t2", by, false},
		{"horizon passed", "t2", "stub2", by + 100, false},
		{"announced", "stub1", "t1", 31, false},
		{"announced, reversed", "t1", "stub1", 31, false},
		{"no event on the pair", "t1", "t2", 11, false},
		{"unknown domains", "stub1", "nowhere", 11, false},
	}
	for _, c := range cases {
		if got := d.Converging(c.a, c.b, c.now); got != c.want {
			t.Errorf("%s: Converging(%s, %s, %g) = %v, want %v", c.name, c.a, c.b, c.now, got, c.want)
		}
	}
}

// RoutesTo memoization must be invisible: a mutation invalidates the
// memo, and a Clone never shares it with its parent.
func TestRoutesToMemoInvalidation(t *testing.T) {
	p := diamond()
	r1, err := p.RoutesTo("stub2")
	if err != nil {
		t.Fatal(err)
	}
	if r1["stub1"].Type == NoRoute {
		t.Fatal("stub1 should reach stub2 via the peering")
	}
	if err := p.RemovePeer("t1", "t2"); err != nil {
		t.Fatal(err)
	}
	r2, err := p.RoutesTo("stub2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r2["stub1"]; ok && r2["stub1"].Type != NoRoute {
		t.Fatalf("memo served a stale route after RemovePeer: %+v", r2["stub1"])
	}

	q := diamond()
	if _, err := q.RoutesTo("stub2"); err != nil { // warm q's memo
		t.Fatal(err)
	}
	c := q.Clone()
	if err := c.RemovePeer("t1", "t2"); err != nil {
		t.Fatal(err)
	}
	rq, err := q.RoutesTo("stub2")
	if err != nil {
		t.Fatal(err)
	}
	if rq["stub1"].Type == NoRoute {
		t.Fatal("mutating a clone leaked into the parent's routes")
	}
}

func TestRemoveRelationship(t *testing.T) {
	p := diamond()
	if p.Relationship("stub1", "t1") != RelCustomer {
		t.Fatalf("stub1->t1 = %v, want customer", p.Relationship("stub1", "t1"))
	}
	if p.Relationship("t1", "stub1") != RelProvider {
		t.Fatalf("t1->stub1 = %v, want provider", p.Relationship("t1", "stub1"))
	}
	if err := p.RemoveCustomerProvider("stub1", "t1"); err != nil {
		t.Fatal(err)
	}
	if p.Relationship("stub1", "t1") != RelNone {
		t.Fatal("relationship survives removal")
	}
	if err := p.RemoveCustomerProvider("stub1", "t1"); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := p.RemovePeer("stub1", "t1"); err == nil {
		t.Fatal("RemovePeer accepted a non-peering")
	}
}
