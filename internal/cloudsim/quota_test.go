package cloudsim

import (
	"strings"
	"testing"

	"detournet/internal/httpsim"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
)

// TestPendingBytesChargeQuota: live upload sessions charge the quota
// before they commit — a resumable chunk that would fit next to the
// committed objects alone is still refused when pending sessions
// already hold the headroom, and the 507 carries a Retry-After hint.
func TestPendingBytesChargeQuota(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	rg.svc.Store.Quota = 100
	rg.svc.InjectAbandonedSession("ghost.bin", 80)
	if got := rg.svc.PendingBytes(); got != 80 {
		t.Fatalf("pending = %v, want 80", got)
	}
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/upload/drive/v3/files?uploadType=resumable", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}},
			Body:   []byte(`{"name":"f","size":50}`),
		})
		loc := resp.Header.Get("Location")
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: loc, Host: "dc",
			Header:   httpsim.Header{{Key: "Authorization", Value: auth}, {Key: "Content-Range", Value: "bytes 0-49/50"}},
			BodySize: 50,
		})
		if resp.Status != httpsim.StatusInsufficientStorage {
			t.Errorf("chunk over pending-charged quota got %d, want 507", resp.Status)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("507 carries no Retry-After hint")
		}
		if !strings.Contains(string(resp.Body), ErrQuotaExceeded.Error()) {
			t.Errorf("507 body %q lacks the quota message", resp.Body)
		}
	})
	// The refused chunk must not have leaked into used or pending.
	if got := rg.svc.PendingBytes(); got != 80 {
		t.Fatalf("pending after refusal = %v, want the injected 80", got)
	}
	if used := rg.svc.Store.Used(); used != 0 {
		t.Fatalf("used after refusal = %v, want 0", used)
	}
}

// TestReclaimQuotaIdleThreshold: reclaim collects only sessions idle
// for at least the threshold, frees exactly their pending bytes, and
// counts them; a drop after reclaim reports the session already gone.
func TestReclaimQuotaIdleThreshold(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	rg.svc.Store.Quota = 1000
	id := rg.svc.InjectAbandonedSession("ghost.bin", 150)
	if freed := rg.svc.ReclaimQuota(30); freed != 0 {
		t.Fatalf("reclaimed %v bytes from a fresh session, want 0", freed)
	}
	// Age the session past the idle threshold in virtual time.
	rg.r.Go("age", func(p *simproc.Proc) { p.Sleep(60) })
	rg.r.RunUntil(simclock.Time(100))
	if freed := rg.svc.ReclaimQuota(30); freed != 150 {
		t.Fatalf("reclaimed %v bytes, want 150", freed)
	}
	if rg.svc.SessionsReclaimed != 1 {
		t.Fatalf("SessionsReclaimed = %d, want 1", rg.svc.SessionsReclaimed)
	}
	if got := rg.svc.PendingBytes(); got != 0 {
		t.Fatalf("pending after reclaim = %v, want 0", got)
	}
	if rg.svc.DropSession(id) {
		t.Fatal("DropSession found a session reclaim already collected")
	}
}

// TestDropSession: the fault injector's window-close hook removes the
// injected session exactly once.
func TestDropSession(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	id := rg.svc.InjectAbandonedSession("ghost.bin", 40)
	if got := rg.svc.PendingBytes(); got != 40 {
		t.Fatalf("pending = %v, want 40", got)
	}
	if !rg.svc.DropSession(id) {
		t.Fatal("first drop reported the session missing")
	}
	if got := rg.svc.PendingBytes(); got != 0 {
		t.Fatalf("pending after drop = %v, want 0", got)
	}
	if rg.svc.DropSession(id) {
		t.Fatal("second drop succeeded")
	}
}

// TestUsedNeverExceedsQuota: under a mix of commits, pending sessions,
// and reclaim, the committed bytes stay within quota and admission
// accounts pending bytes — the provider-side storage invariant.
func TestUsedNeverExceedsQuota(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	rg.svc.Store.Quota = 200
	check := func(stage string) {
		t.Helper()
		if used := rg.svc.Store.Used(); used > rg.svc.Store.Quota {
			t.Fatalf("%s: used %v exceeds quota %v", stage, used, rg.svc.Store.Quota)
		}
	}
	rg.svc.InjectAbandonedSession("a.bin", 90)
	rg.svc.InjectAbandonedSession("b.bin", 90)
	check("after injections")
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		// 30 bytes would fit against used alone; pending blocks it.
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/upload/drive/v3/files?uploadType=resumable", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}},
			Body:   []byte(`{"name":"f","size":30}`),
		})
		loc := resp.Header.Get("Location")
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: loc, Host: "dc",
			Header:   httpsim.Header{{Key: "Authorization", Value: auth}, {Key: "Content-Range", Value: "bytes 0-29/30"}},
			BodySize: 30,
		})
		if resp.Status != httpsim.StatusInsufficientStorage {
			t.Errorf("admission ignored pending bytes: got %d, want 507", resp.Status)
		}
		// Reclaim the two idle ghosts, then the same upload commits.
		p.Sleep(60)
		if freed := rg.svc.ReclaimQuota(30); freed != 180 {
			t.Errorf("reclaimed %v, want 180", freed)
		}
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: loc, Host: "dc",
			Header:   httpsim.Header{{Key: "Authorization", Value: auth}, {Key: "Content-Range", Value: "bytes 0-29/30"}},
			BodySize: 30,
		})
		if !resp.OK() {
			t.Errorf("post-reclaim chunk got %d, want success", resp.Status)
		}
	})
	check("after reclaim and commit")
	if used := rg.svc.Store.Used(); used != 30 {
		t.Fatalf("used = %v, want the committed 30", used)
	}
}
