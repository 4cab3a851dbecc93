package sched

import (
	"testing"

	"detournet/internal/core"
)

func fakeClock(t *float64) func() float64 {
	return func() float64 { return *t }
}

var cands = []core.Route{core.DirectRoute, core.ViaRoute("ualberta"), core.ViaRoute("umich-pl")}

func TestSizeBucket(t *testing.T) {
	cases := []struct {
		bytes float64
		want  int
	}{
		{50e3, 0}, {999e3, 0}, {1e6, 1}, {3.9e6, 1}, {4e6, 2},
		{15e6, 2}, {16e6, 3}, {60e6, 3}, {100e6, 4}, {1e12, 8},
	}
	for _, c := range cases {
		if got := SizeBucket(c.bytes); got != c.want {
			t.Errorf("SizeBucket(%g) = %d, want %d", c.bytes, got, c.want)
		}
	}
	a := KeyFor("ubc-pl", "GoogleDrive", 20e6)
	b := KeyFor("ubc-pl", "GoogleDrive", 50e6)
	if a != b {
		t.Errorf("20MB and 50MB should share a bucket: %+v vs %+v", a, b)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(10, 10, fakeClock(&clock))
	k := KeyFor("ubc-pl", "GoogleDrive", 10e6)
	det := core.ViaRoute("ualberta")
	c.Insert(k, det, cands)

	if r, ok := c.Lookup(k); !ok || r != det {
		t.Fatalf("fresh lookup = %v %v, want hit on %v", r, ok, det)
	}
	clock = 9.99
	if _, ok := c.Lookup(k); !ok {
		t.Fatal("entry expired before TTL")
	}
	clock = 10
	if _, ok := c.Lookup(k); ok {
		t.Fatal("entry survived past TTL")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry not swept: len=%d", c.Len())
	}
	h, m, _ := c.Counters()
	if h != 2 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestCacheObserveRefreshesDecision: live traffic showing another route
// is faster re-elects the cached route without a probe.
func TestCacheObserveRefreshesDecision(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(1000, 1000, fakeClock(&clock))
	k := KeyFor("ubc-pl", "GoogleDrive", 10e6)
	det := core.ViaRoute("ualberta")
	c.Insert(k, det, cands)

	// Detour delivers 1 MB/s; direct turns out to deliver 5 MB/s.
	c.Observe(k, det, 10e6, 10)
	c.Observe(k, core.DirectRoute, 10e6, 2)
	if r, ok := c.Lookup(k); !ok || r != core.DirectRoute {
		t.Fatalf("after observations lookup = %v, want Direct re-elected", r)
	}
	// And back, when the detour recovers decisively. (EWMA needs a few
	// observations to cross over.)
	for i := 0; i < 6; i++ {
		c.Observe(k, det, 10e6, 1)
	}
	if r, _ := c.Lookup(k); r != det {
		t.Fatalf("lookup = %v, want detour re-elected after recovery", r)
	}
}

func TestCacheInvalidateQuarantines(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(1000, 50, fakeClock(&clock))
	k := KeyFor("purdue-pl", "Dropbox", 30e6)
	det := core.ViaRoute("ualberta")
	c.Insert(k, det, cands)
	c.Observe(k, det, 30e6, 3) // detour looks great: 10 MB/s

	c.Invalidate(k, det)
	if r, ok := c.Lookup(k); !ok || r != core.DirectRoute {
		t.Fatalf("after invalidate lookup = %v %v, want direct hit", r, ok)
	}
	// While quarantined, even a glowing observation cannot re-elect it.
	c.Observe(k, core.DirectRoute, 30e6, 30)
	if r, _ := c.Lookup(k); r != core.DirectRoute {
		t.Fatalf("quarantined detour re-elected: %v", r)
	}
	// After the quarantine lapses, its (stale, good) estimate may win
	// again — the cooldown retry.
	clock = 51
	c.Observe(k, core.DirectRoute, 30e6, 30) // direct still 1 MB/s
	if r, _ := c.Lookup(k); r != det {
		t.Fatalf("post-quarantine lookup = %v, want detour back", r)
	}
}

func TestCacheInvalidateDirectDropsEntry(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(1000, 1000, fakeClock(&clock))
	k := KeyFor("ucla-pl", "OneDrive", 5e6)
	c.Insert(k, core.DirectRoute, cands)
	c.Invalidate(k, core.DirectRoute)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("entry survived direct-route invalidation; next job should re-plan")
	}
}

func TestCacheHitRate(t *testing.T) {
	clock := 0.0
	c := NewRouteCache(100, 100, fakeClock(&clock))
	k := KeyFor("ubc-pl", "GoogleDrive", 10e6)
	if c.HitRate() != 0 {
		t.Error("hit rate before lookups should be 0")
	}
	c.Lookup(k) // miss
	c.Insert(k, core.DirectRoute, nil)
	for i := 0; i < 9; i++ {
		c.Lookup(k)
	}
	if hr := c.HitRate(); hr != 0.9 {
		t.Errorf("hit rate = %v, want 0.9", hr)
	}
}
