package cloudsim

import (
	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
)

// Dropbox API v2 subset: single-shot upload plus chunked upload
// sessions, content download, delete. API arguments ride in the
// Dropbox-API-Arg header as JSON, content in the body — matching the
// real wire protocol.
//
//	POST /2/files/upload                      arg {path}            body -> metadata
//	POST /2/files/upload_session/start        body chunk            -> {session_id}
//	POST /2/files/upload_session/append_v2    arg {cursor}          body chunk -> 200
//	POST /2/files/upload_session/finish       arg {cursor, commit}  body chunk -> metadata
//	POST /2/files/download                    arg {path}            -> bytes
//	POST /2/files/delete_v2                   arg {path}            -> metadata
func (s *Service) mountDropbox() {
	s.HTTP.Handle("POST", "/2/files/upload_session/start", s.protect(s.dbxStart))
	s.HTTP.Handle("POST", "/2/files/upload_session/append_v2", s.protect(s.dbxAppend))
	s.HTTP.Handle("POST", "/2/files/upload_session/finish", s.protect(s.dbxFinish))
	s.HTTP.Handle("POST", "/2/files/upload", s.protect(s.dbxUpload))
	s.HTTP.Handle("POST", "/2/files/download", s.protect(s.dbxDownload))
	s.HTTP.Handle("POST", "/2/files/delete_v2", s.protect(s.dbxDelete))
}

func dbxParseArg(req *httpsim.Request) (jsonwire.DropboxArg, *httpsim.Response) {
	var a jsonwire.DropboxArg
	raw, ok := req.Header.Value("Dropbox-API-Arg")
	if !ok {
		return a, errResp(httpsim.StatusBadRequest, "missing Dropbox-API-Arg")
	}
	if err := a.Decode(raw); err != nil {
		return a, errResp(httpsim.StatusBadRequest, "bad Dropbox-API-Arg")
	}
	return a, nil
}

func (s *Service) dbxUpload(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	a, errR := dbxParseArg(req)
	if errR != nil {
		return errR
	}
	if a.Path == "" {
		return errResp(httpsim.StatusBadRequest, "missing path")
	}
	o, err := s.Store.PutIdempotent(a.Path, req.ContentLength(), req.Header.Get("X-Content-MD5"), req.Header.Get("X-Attempt-Id"))
	if err != nil {
		return s.putErr(err)
	}
	return metaResp(httpsim.StatusOK, o)
}

func (s *Service) dbxStart(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	if resp := s.admitSessionBytes(req.ContentLength()); resp != nil {
		return resp
	}
	sess := s.newSession("", 0)
	sess.received = req.ContentLength() // start may carry the first chunk
	return jsonResp(httpsim.StatusOK, jsonwire.SessionStart{SessionID: sess.id}.AppendJSON(make([]byte, 0, 32)))
}

func (s *Service) dbxAppend(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	a, errR := dbxParseArg(req)
	if errR != nil {
		return errR
	}
	if a.Cursor == nil {
		return errResp(httpsim.StatusBadRequest, "missing cursor")
	}
	sess, ok := s.session(a.Cursor.SessionID)
	if !ok || sess.done {
		return errResp(httpsim.StatusNotFound, "unknown session")
	}
	if a.Cursor.Offset != sess.received {
		return offsetConflict(sess.received)
	}
	if resp := s.admitSessionBytes(req.ContentLength()); resp != nil {
		return resp
	}
	sess.received += req.ContentLength()
	return &httpsim.Response{Status: httpsim.StatusOK}
}

func (s *Service) dbxFinish(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	a, errR := dbxParseArg(req)
	if errR != nil {
		return errR
	}
	if a.Cursor == nil || a.Commit == nil || a.Commit.Path == "" {
		return errResp(httpsim.StatusBadRequest, "missing cursor or commit")
	}
	sess, ok := s.session(a.Cursor.SessionID)
	if !ok || sess.done {
		return errResp(httpsim.StatusNotFound, "unknown session")
	}
	if a.Cursor.Offset != sess.received {
		return offsetConflict(sess.received)
	}
	if resp := s.admitSessionBytes(req.ContentLength()); resp != nil {
		return resp
	}
	sess.received += req.ContentLength()
	sess.done = true
	o, err := s.Store.PutIdempotent(a.Commit.Path, sess.received, req.Header.Get("X-Content-MD5"), req.Header.Get("X-Attempt-Id"))
	if err != nil {
		return s.putErr(err)
	}
	return metaResp(httpsim.StatusOK, o)
}

func (s *Service) dbxDownload(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	a, errR := dbxParseArg(req)
	if errR != nil {
		return errR
	}
	o, ok := s.Store.Get(a.Path)
	if !ok {
		return errResp(httpsim.StatusNotFound, "path/not_found")
	}
	return &httpsim.Response{Status: httpsim.StatusOK, BodySize: o.Size,
		Header: httpsim.Header{{Key: "Dropbox-API-Result", Value: string(metaOf(o).AppendJSON(nil))}}}
}

func (s *Service) dbxDelete(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	a, errR := dbxParseArg(req)
	if errR != nil {
		return errR
	}
	o, ok := s.Store.Get(a.Path)
	if !ok {
		return errResp(httpsim.StatusNotFound, "path_lookup/not_found")
	}
	s.Store.Delete(a.Path)
	return metaResp(httpsim.StatusOK, o)
}

// offsetConflict is the 409 the real API answers an append or finish at
// the wrong offset with: it reports the server's offset so clients can
// self-correct after an interruption.
func offsetConflict(received float64) *httpsim.Response {
	return jsonResp(httpsim.StatusConflict,
		jsonwire.OffsetConflict{CorrectOffset: received, Error: "incorrect_offset"}.AppendJSON(nil))
}
