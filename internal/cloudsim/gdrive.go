package cloudsim

import (
	"fmt"
	"strconv"
	"strings"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
)

// Google Drive v3 subset: resumable upload (initiate + PUT with
// Content-Range), media download, metadata get, delete.
//
//	POST /upload/drive/v3/files?uploadType=resumable   {name,size} -> Location header
//	PUT  /upload/drive/v3/sessions/<id>                body (+Content-Range) -> 200 or 308
//	GET  /drive/v3/files/<id>?alt=media                -> bytes
//	GET  /drive/v3/files/<id>                          -> metadata
//	DELETE /drive/v3/files/<id>
func (s *Service) mountGoogleDrive() {
	s.HTTP.Handle("POST", "/upload/drive/v3/files", s.protect(s.gdInitiate))
	s.HTTP.Handle("PUT", "/upload/drive/v3/sessions/", s.protect(s.gdUpload))
	s.HTTP.Handle("GET", "/drive/v3/files/", s.protect(s.gdGet))
	s.HTTP.Handle("GET", "/drive/v3/files", s.protect(s.gdList))
	s.HTTP.Handle("DELETE", "/drive/v3/files/", s.protect(s.gdDelete))
}

// gdList implements the `q=name='x'` search the SDK uses to resolve a
// name to a file ID.
func (s *Service) gdList(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	_, query, _ := strings.Cut(req.Path, "?")
	var name string
	if strings.HasPrefix(query, "q=name=") {
		name = strings.Trim(strings.TrimPrefix(query, "q=name="), "'")
	}
	var files []jsonwire.FileMeta
	if name != "" {
		if o, ok := s.Store.Get(name); ok {
			files = append(files, metaOf(o))
		}
	} else {
		for _, o := range s.Store.List() {
			files = append(files, metaOf(o))
		}
	}
	return jsonResp(httpsim.StatusOK, jsonwire.FileList{Files: files}.AppendJSON(nil))
}

func (s *Service) gdInitiate(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	if !strings.Contains(req.Path, "uploadType=resumable") {
		return errResp(httpsim.StatusBadRequest, "only resumable uploads supported")
	}
	var init jsonwire.DriveInit
	if err := init.Decode(req.Body); err != nil || init.Name == "" {
		return errResp(httpsim.StatusBadRequest, "bad metadata")
	}
	sess := s.newSession(init.Name, init.Size)
	return &httpsim.Response{
		Status: httpsim.StatusOK,
		Header: httpsim.Header{{Key: "Location", Value: "/upload/drive/v3/sessions/" + sess.id}},
	}
}

func (s *Service) gdUpload(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	id := strings.TrimPrefix(req.Path, "/upload/drive/v3/sessions/")
	sess, ok := s.session(id)
	if !ok || sess.done {
		return errResp(httpsim.StatusNotFound, "unknown session")
	}
	n := req.ContentLength()
	if cr, ok := req.Header.Value("Content-Range"); ok {
		// Status query ("bytes */total"): report progress without
		// consuming the (empty) body — how real clients resume after an
		// interruption.
		if strings.HasPrefix(cr, "bytes */") {
			if sess.received == 0 {
				return &httpsim.Response{Status: httpsim.StatusPermanentRedirect}
			}
			return &httpsim.Response{
				Status: httpsim.StatusPermanentRedirect,
				Header: httpsim.Header{{Key: "Range", Value: rangeHeader(sess.received)}},
			}
		}
		lo, hi, total, err := parseContentRange(cr)
		if err != nil {
			return errResp(httpsim.StatusBadRequest, err.Error())
		}
		if lo != sess.received {
			return errResp(httpsim.StatusConflict,
				fmt.Sprintf("expected offset %v, got %v", sess.received, lo))
		}
		if total >= 0 {
			sess.total = total
		}
		n = hi - lo + 1
	} else if sess.total == 0 {
		sess.total = n
	}
	if resp := s.admitSessionBytes(n); resp != nil {
		return resp
	}
	sess.received += n
	if sess.total > 0 && sess.received < sess.total {
		return &httpsim.Response{
			Status: httpsim.StatusPermanentRedirect, // 308 Resume Incomplete
			Header: httpsim.Header{{Key: "Range", Value: rangeHeader(sess.received)}},
		}
	}
	sess.done = true
	md5 := req.Header.Get("X-Content-MD5") // optional integrity echo
	o, err := s.Store.PutIdempotent(sess.name, sess.received, md5, req.Header.Get("X-Attempt-Id"))
	if err != nil {
		return s.putErr(err)
	}
	return metaResp(httpsim.StatusOK, o)
}

func (s *Service) gdGet(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	rest := strings.TrimPrefix(req.Path, "/drive/v3/files/")
	id, _, hasQuery := strings.Cut(rest, "?")
	o, ok := s.Store.GetByID(id)
	if !ok {
		return errResp(httpsim.StatusNotFound, "no such file")
	}
	if hasQuery && strings.Contains(rest, "alt=media") {
		return &httpsim.Response{Status: httpsim.StatusOK, BodySize: o.Size}
	}
	return metaResp(httpsim.StatusOK, o)
}

func (s *Service) gdDelete(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	id := strings.TrimPrefix(req.Path, "/drive/v3/files/")
	o, ok := s.Store.GetByID(id)
	if !ok {
		return errResp(httpsim.StatusNotFound, "no such file")
	}
	s.Store.Delete(o.Name)
	return &httpsim.Response{Status: httpsim.StatusNoContent}
}

// rangeHeader renders Drive's "bytes=0-<received-1>" progress header
// exactly as the format "bytes=0-%.0f" does, without boxing the number.
func rangeHeader(received float64) string {
	b := make([]byte, 0, 32)
	b = append(b, "bytes=0-"...)
	return string(strconv.AppendFloat(b, received-1, 'f', 0, 64))
}
