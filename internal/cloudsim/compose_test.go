package cloudsim

import (
	"testing"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
	"detournet/internal/simclock"
)

func composeReqBody(t *testing.T, name string, parts ...string) *httpsim.Request {
	t.Helper()
	body := jsonwire.ComposeRequest{Name: name, Parts: parts}.AppendJSON(nil)
	return &httpsim.Request{Method: "POST", Body: body}
}

func TestComposeMovesParts(t *testing.T) {
	s := &Service{Store: NewObjectStore(simclock.NewEngine())}
	s.Store.Put("f.mp0000", 60, "")
	s.Store.Put("f.mp0001", 40, "")
	resp := s.compose(nil, composeReqBody(t, "f", "f.mp0000", "f.mp0001"))
	if resp.Status != httpsim.StatusOK {
		t.Fatalf("compose status = %d: %s", resp.Status, resp.Body)
	}
	o, ok := s.Store.Get("f")
	if !ok || o.Size != 100 {
		t.Fatalf("composed object = %+v, %v", o, ok)
	}
	if _, ok := s.Store.Get("f.mp0000"); ok {
		t.Fatal("part survived a successful compose")
	}
	if s.Store.Used() != 100 {
		t.Fatalf("Used = %v, want 100 (compose is a move)", s.Store.Used())
	}
}

// TestComposeFailureRestoresParts pins the atomic-commit behavior: when
// the final Put fails, the part objects must be restored, so the client
// can retry the compose instead of re-uploading everything.
func TestComposeFailureRestoresParts(t *testing.T) {
	s := &Service{Store: NewObjectStore(simclock.NewEngine())}
	s.Store.Put("f.mp0000", 60, "")
	s.Store.Put("f.mp0001", 40, "")
	// Shrink the quota under the stored bytes so the final Put fails
	// even after the parts are freed.
	s.Store.Quota = 50
	resp := s.compose(nil, composeReqBody(t, "f", "f.mp0000", "f.mp0001"))
	// Quota exhaustion now answers 507 Insufficient Storage (with a
	// Retry-After hint) instead of the generic 413.
	if resp.Status != httpsim.StatusInsufficientStorage {
		t.Fatalf("compose status = %d: %s", resp.Status, resp.Body)
	}
	if _, ok := resp.Header.Value("Retry-After"); !ok {
		t.Fatal("507 response carries no Retry-After hint")
	}
	if _, ok := s.Store.Get("f"); ok {
		t.Fatal("final object exists after failed compose")
	}
	for _, part := range []string{"f.mp0000", "f.mp0001"} {
		if _, ok := s.Store.Get(part); !ok {
			t.Fatalf("part %s destroyed by failed compose", part)
		}
	}
	if s.Store.Used() != 100 {
		t.Fatalf("Used = %v, want 100 after rollback", s.Store.Used())
	}
}
