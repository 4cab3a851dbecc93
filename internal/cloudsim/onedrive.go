package cloudsim

import (
	"fmt"
	"strings"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
)

// OneDrive (Microsoft Graph era) subset: upload sessions with
// Content-Range fragment PUTs, content download, delete.
//
//	POST /v1.0/drive/root:/<name>:/createUploadSession  -> {uploadUrl}
//	PUT  /v1.0/upload/<id>   Content-Range fragment     -> 202 (more) / 201 (done)
//	GET  /v1.0/drive/root:/<name>:/content              -> bytes
//	DELETE /v1.0/drive/root:/<name>
func (s *Service) mountOneDrive() {
	s.HTTP.Handle("POST", "/v1.0/drive/root:", s.protect(s.odCreateSession))
	s.HTTP.Handle("PUT", "/v1.0/upload/", s.protect(s.odUpload))
	s.HTTP.Handle("GET", "/v1.0/drive/root:", s.protect(s.odDownload))
	s.HTTP.Handle("DELETE", "/v1.0/drive/root:", s.protect(s.odDelete))
}

// odItemPath extracts "<name>" from "/v1.0/drive/root:/<name>:/<verb>"
// or "/v1.0/drive/root:/<name>".
func odItemPath(path, verb string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1.0/drive/root:/")
	if !ok {
		return "", false
	}
	if verb == "" {
		return rest, rest != ""
	}
	name, ok := strings.CutSuffix(rest, ":/"+verb)
	return name, ok && name != ""
}

func (s *Service) odCreateSession(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	name, ok := odItemPath(req.Path, "createUploadSession")
	if !ok {
		return errResp(httpsim.StatusBadRequest, "bad item path")
	}
	sess := s.newSession(name, 0)
	return jsonResp(httpsim.StatusOK, jsonwire.UploadSession{
		ExpirationDateTime: "simulated",
		UploadURL:          "/v1.0/upload/" + sess.id,
	}.AppendJSON(make([]byte, 0, 96)))
}

func (s *Service) odUpload(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	id := strings.TrimPrefix(req.Path, "/v1.0/upload/")
	sess, ok := s.session(id)
	if !ok || sess.done {
		return errResp(httpsim.StatusNotFound, "unknown upload session")
	}
	cr, ok := req.Header.Value("Content-Range")
	if !ok {
		return errResp(httpsim.StatusBadRequest, "fragment PUT requires Content-Range")
	}
	lo, hi, total, err := parseContentRange(cr)
	if err != nil {
		return errResp(httpsim.StatusBadRequest, err.Error())
	}
	if total <= 0 {
		return errResp(httpsim.StatusBadRequest, "OneDrive requires a known total size")
	}
	if lo != sess.received {
		return errResp(httpsim.StatusConflict,
			fmt.Sprintf("expected offset %v, got %v", sess.received, lo))
	}
	sess.total = total
	if resp := s.admitSessionBytes(hi - lo + 1); resp != nil {
		return resp
	}
	sess.received += hi - lo + 1
	if sess.received < sess.total {
		return jsonResp(202, jsonwire.NextRanges{
			NextExpectedRanges: []string{fmt.Sprintf("%.0f-%.0f", sess.received, sess.total-1)},
		}.AppendJSON(make([]byte, 0, 64)))
	}
	sess.done = true
	o, err := s.Store.PutIdempotent(sess.name, sess.received, req.Header.Get("X-Content-MD5"), req.Header.Get("X-Attempt-Id"))
	if err != nil {
		return s.putErr(err)
	}
	return metaResp(httpsim.StatusCreated, o)
}

func (s *Service) odDownload(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	name, ok := odItemPath(req.Path, "content")
	if !ok {
		// Bare item path: return metadata.
		if name, ok = odItemPath(req.Path, ""); ok {
			if o, found := s.Store.Get(name); found {
				return metaResp(httpsim.StatusOK, o)
			}
		}
		return errResp(httpsim.StatusNotFound, "itemNotFound")
	}
	o, found := s.Store.Get(name)
	if !found {
		return errResp(httpsim.StatusNotFound, "itemNotFound")
	}
	return &httpsim.Response{Status: httpsim.StatusOK, BodySize: o.Size}
}

func (s *Service) odDelete(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	name, ok := odItemPath(req.Path, "")
	if !ok {
		return errResp(httpsim.StatusBadRequest, "bad item path")
	}
	if !s.Store.Delete(name) {
		return errResp(httpsim.StatusNotFound, "itemNotFound")
	}
	return &httpsim.Response{Status: httpsim.StatusNoContent}
}
