package cloudsim

import (
	"encoding/json"
	"strings"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
)

// Server-side compose: concatenate previously uploaded part objects, in
// the order given, into one final object — the commit step of a striped
// multipath upload. The 2015-era consumer APIs this simulator models
// did not expose compose (GCS had Objects.compose, the consumer
// products did not); it is modeled here as the minimal control-plane
// extension a multipath data plane needs, identical in semantics across
// the three styles and mounted under each provider's path flavor:
//
//	Google Drive: POST /drive/v3/files:compose
//	Dropbox:      POST /2/files/compose
//	OneDrive:     POST /v1.0/drive/compose
//
// Body: {"md5": ..., "name": ..., "parts": ["part0", "part1", ...]}.
// Every part must exist; the final size is the sum of part sizes; the
// md5 is the client's whole-file digest (echoed into the stored
// metadata exactly like the X-Content-MD5 header on uploads). Parts are
// deleted on success — compose is a move, not a copy, so the quota
// accounting stays flat.
func (s *Service) mountCompose() {
	var path string
	switch s.Style {
	case GoogleDrive:
		path = "/drive/v3/files:compose"
	case Dropbox:
		path = "/2/files/compose"
	default:
		path = "/v1.0/drive/compose"
	}
	s.HTTP.Handle("POST", path, s.protect(s.compose))
}

func (s *Service) compose(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	var cr jsonwire.ComposeRequest
	if err := json.Unmarshal(req.Body, &cr); err != nil || cr.Name == "" || len(cr.Parts) == 0 {
		return errResp(httpsim.StatusBadRequest, "compose needs a name and at least one part")
	}
	// Idempotent replay: a crash between a committed compose and its
	// journal record re-issues the same attempt, whose parts are gone —
	// answer with the object the first commit produced.
	if key := req.Header.Get("X-Attempt-Id"); key != "" {
		if o, ok := s.Store.Replayed(key, cr.Name); ok {
			status := httpsim.StatusOK
			if s.Style == OneDrive {
				status = httpsim.StatusCreated
			}
			return metaResp(status, o)
		}
	}
	var total float64
	parts := make([]*Object, 0, len(cr.Parts))
	seen := make(map[string]bool, len(cr.Parts))
	for _, part := range cr.Parts {
		if seen[part] {
			return errResp(httpsim.StatusBadRequest, "duplicate part "+part)
		}
		seen[part] = true
		o, ok := s.Store.Get(part)
		if !ok {
			return errResp(httpsim.StatusNotFound, "missing part "+part)
		}
		total += o.Size
		parts = append(parts, o)
	}
	// The commit must be atomic from the client's view: the parts are
	// the client's only copy of the uploaded bytes, so nothing may be
	// deleted until the final Put is known to fit. Mirror Put's quota
	// check against the post-compose usage (parts freed, any object the
	// final name replaces freed, final object added) and reject while
	// the parts are still intact — a failed compose stays retryable.
	if q := s.Store.Quota; q > 0 {
		freed := total
		if old, ok := s.Store.Get(cr.Name); ok && !seen[cr.Name] {
			freed += old.Size
		}
		if s.Store.Used()-freed+total > q {
			return s.insufficientStorage(ErrQuotaExceeded.Error())
		}
	}
	// Free the parts before the final Put so a quota-bound store does
	// not double-count the bytes mid-compose.
	for _, part := range cr.Parts {
		s.Store.Delete(part)
	}
	o, err := s.Store.Put(cr.Name, total, cr.MD5)
	if err != nil {
		// Roll back: every part goes back exactly as it was. Restore
		// (not Put) preserves object identity and commit counts, so the
		// failed compose cannot over-report reclaimed space or inflate
		// per-name commit tallies; and every part is attempted even if
		// one fails, so a partial rollback never silently drops the rest.
		var lost []string
		for _, p := range parts {
			if rerr := s.Store.Restore(p); rerr != nil {
				lost = append(lost, p.Name)
			}
		}
		if len(lost) > 0 {
			return errResp(httpsim.StatusInternalServerError,
				"compose failed and parts could not be restored: "+strings.Join(lost, ", "))
		}
		return s.putErr(err)
	}
	s.Store.RecordAttempt(req.Header.Get("X-Attempt-Id"), o)
	status := httpsim.StatusOK
	if s.Style == OneDrive {
		status = httpsim.StatusCreated
	}
	return metaResp(status, o)
}
