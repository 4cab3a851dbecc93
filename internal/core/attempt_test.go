package core

import (
	"testing"

	"detournet/internal/simproc"
)

// TestRelayKeyDoesNotLeakOntoOtherUploads runs a keyed resumable relay
// and, while its second hop is in flight, an unrelated upload through
// the same agent-side Drive client. The unrelated commit must not carry
// the relay's idempotency key: if it did, it would overwrite the key's
// entry in the provider's attempt table, and a crash-replayed attempt
// of the real job would commit a second time.
func TestRelayKeyDoesNotLeakOntoOtherUploads(t *testing.T) {
	tb := newTestbed(t)
	dc := NewDetourClient(tb.tn, "user", "dtn")
	shared := tb.agent.clients["GoogleDrive"]
	store := tb.svc.Store
	checked := false
	tb.r.Go("other", func(p *simproc.Proc) {
		p.Sleep(7.5) // hop 1 is done; the keyed relay is mid-upload
		if _, err := shared.Upload(p, "other.bin", 1e6, ""); err != nil {
			t.Errorf("other upload: %v", err)
			return
		}
		if _, ok := store.Get("job.bin"); ok {
			t.Error("relay finished before the other upload; the test no longer overlaps them")
		}
		if _, leaked := store.Replayed("job#1", "other.bin"); leaked {
			t.Error("other.bin was committed under the relay's key job#1")
		}
		checked = true
	})
	tb.run(t, func(p *simproc.Proc) {
		ck := &Checkpoint{AttemptID: "job#1"}
		if _, err := dc.UploadResumable(p, "GoogleDrive", "job.bin", 40e6, "", ck); err != nil {
			t.Errorf("relay: %v", err)
		}
	})
	if !checked {
		t.Fatal("the other upload never ran")
	}
	if _, ok := store.Replayed("job#1", "job.bin"); !ok {
		t.Error("the relay's commit is not recorded under its key")
	}
}
