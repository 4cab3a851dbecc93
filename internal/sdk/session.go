package sdk

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
	"detournet/internal/simproc"
)

// UploadSession is a provider upload in progress: chunks are written
// sequentially and the final write returns the stored metadata. The
// pipelined detour relay uses sessions to start uploading to the
// provider before the whole file has arrived at the DTN.
type UploadSession interface {
	// WriteChunk appends n bytes. last must be set on the final chunk;
	// the returned FileInfo is only valid then.
	WriteChunk(p *simproc.Proc, n float64, last bool) (FileInfo, error)
	// Written returns the bytes appended so far.
	Written() float64
	// Token checkpoints the session for a later Resume.
	Token() SessionToken
}

// SessionToken is the serializable checkpoint of a provider upload
// session: everything another client of the same provider — possibly on
// a different host, after a crash or a route change — needs to reattach
// and continue where the interrupted upload left off.
type SessionToken struct {
	Provider string
	Ref      string // GDrive: session Location; Dropbox: session_id; OneDrive: uploadUrl
	Name     string
	Size     float64
	Offset   float64 // last locally-known confirmed offset
	MD5      string
}

// SessionResumer is a client that can reattach to an interrupted
// session from its token; attempt is the idempotency key the resumed
// session's commit carries (see Client.BeginUpload). GoogleDrive
// queries the server for the confirmed offset; Dropbox self-corrects
// via the 409 correct_offset protocol. OneDrive's 2015-era community
// library had no resume, so OneDrive uploads restart from zero.
type SessionResumer interface {
	Resume(p *simproc.Proc, tok SessionToken, attempt string) (UploadSession, error)
}

// --- Content-Range sessions (Google Drive, OneDrive) ---

// rangeProto is what tells the two Content-Range protocols apart: the
// status that asks for more chunks, the status that answers the
// committing chunk, and the label errors carry.
type rangeProto struct {
	provider   string
	more, done int
	what       string
}

var (
	driveRanges    = rangeProto{"GoogleDrive", httpsim.StatusPermanentRedirect, httpsim.StatusOK, "drive chunk"}
	oneDriveRanges = rangeProto{"OneDrive", 202, httpsim.StatusCreated, "onedrive fragment"}
)

// rangeSession is a Drive resumable upload or a OneDrive upload session
// in progress: each chunk is a PUT of "bytes a-b/total" to the session
// URL.
type rangeSession struct {
	rangeProto
	b       *base
	url     string
	size    float64
	sent    float64
	md5     string
	attempt string // idempotency key the commit carries
}

// Written implements UploadSession.
func (s *rangeSession) Written() float64 { return s.sent }

// WriteChunk implements UploadSession.
func (s *rangeSession) WriteChunk(p *simproc.Proc, n float64, last bool) (FileInfo, error) {
	if n <= 0 {
		return FileInfo{}, fmt.Errorf("sdk: empty chunk")
	}
	put, err := s.b.authed(p, "PUT", s.url)
	if err != nil {
		return FileInfo{}, err
	}
	put.Header.Set("Content-Range", contentRange(s.sent, s.sent+n-1, s.size))
	if s.md5 != "" {
		put.Header.Set("X-Content-MD5", s.md5)
	}
	tagAttempt(put, s.attempt)
	put.BodySize = n
	resp, err := s.b.doRaw(p, put)
	if err != nil {
		return FileInfo{}, err
	}
	s.sent += n
	switch {
	case resp.Status == s.more && !last:
		return FileInfo{}, nil
	case resp.Status == s.done && last:
		return decodeMeta(resp.Body)
	default:
		// Keep the typed *StatusError (and its Retry-After hint) for
		// non-2xx answers so callers can branch on 429 vs 507 vs 5xx.
		if err := resp.Error(); err != nil {
			return FileInfo{}, fmt.Errorf("sdk: %s at %.0f: %w", s.what, s.sent-n, err)
		}
		return FileInfo{}, fmt.Errorf("sdk: %s at %.0f: status %d (last=%v)", s.what, s.sent-n, resp.Status, last)
	}
}

// contentRange renders "bytes lo-hi/total" exactly as the format
// "bytes %.0f-%.0f/%.0f" does, without boxing the numbers.
func contentRange(lo, hi, total float64) string {
	b := make([]byte, 0, 64)
	b = append(b, "bytes "...)
	b = strconv.AppendFloat(b, lo, 'f', 0, 64)
	b = append(b, '-')
	b = strconv.AppendFloat(b, hi, 'f', 0, 64)
	b = append(b, '/')
	b = strconv.AppendFloat(b, total, 'f', 0, 64)
	return string(b)
}

// Token implements UploadSession. OneDrive cannot Resume (see
// SessionResumer), but its token still records progress for accounting.
func (s *rangeSession) Token() SessionToken {
	return SessionToken{
		Provider: s.provider, Ref: s.url,
		Size: s.size, Offset: s.sent, MD5: s.md5,
	}
}

// --- Google Drive ---

// initiate opens a Drive resumable session and returns its Location.
func (g *GoogleDrive) initiate(p *simproc.Proc, name string, size float64) (string, error) {
	req, err := g.authed(p, "POST", "/upload/drive/v3/files?uploadType=resumable")
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Body = jsonwire.DriveInit{Name: name, Size: size}.AppendJSON(make([]byte, 0, 64))
	resp, err := g.do(p, req)
	if err != nil {
		return "", fmt.Errorf("sdk: drive initiate: %w", err)
	}
	location := resp.Header.Get("Location")
	if location == "" {
		return "", fmt.Errorf("sdk: drive initiate returned no Location")
	}
	return location, nil
}

// BeginUpload implements Client: it initiates a resumable session.
func (g *GoogleDrive) BeginUpload(p *simproc.Proc, name string, size float64, md5, attempt string) (UploadSession, error) {
	// The size rides in the initiate body, and JSON has no NaN or ±Inf.
	if !(size > 0) || math.IsInf(size, 1) {
		return nil, fmt.Errorf("sdk: session needs a positive, finite size")
	}
	location, err := g.initiate(p, name, size)
	if err != nil {
		return nil, err
	}
	return &rangeSession{rangeProto: driveRanges, b: &g.base, url: location, size: size, md5: md5, attempt: attempt}, nil
}

// Resume implements SessionResumer: it queries the server for the
// confirmed offset (a "bytes */total" status PUT, per the real
// protocol) and returns a session positioned to continue from there.
// The server's answer is ground truth, so a stale token still resumes
// correctly.
func (g *GoogleDrive) Resume(p *simproc.Proc, tok SessionToken, attempt string) (UploadSession, error) {
	if tok.Ref == "" || tok.Size <= 0 {
		return nil, fmt.Errorf("sdk: resume needs a location and positive size")
	}
	req, err := g.authed(p, "PUT", tok.Ref)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Range", fmt.Sprintf("bytes */%.0f", tok.Size))
	resp, err := g.http.Do(p, req)
	if err != nil {
		return nil, err
	}
	if resp.Status != httpsim.StatusPermanentRedirect {
		return nil, fmt.Errorf("sdk: resume status query got %d", resp.Status)
	}
	var sent float64
	if r, ok := strings.CutPrefix(resp.Header.Get("Range"), "bytes=0-"); ok {
		if hi, err := strconv.ParseFloat(r, 64); err == nil && hi >= 0 && !math.IsInf(hi, 1) {
			sent = hi + 1
		}
	}
	return &rangeSession{rangeProto: driveRanges, b: &g.base, url: tok.Ref, size: tok.Size, sent: sent, md5: tok.MD5, attempt: attempt}, nil
}

// --- Dropbox ---

// dropboxSession is an upload_session in progress.
type dropboxSession struct {
	d         *Dropbox
	name      string
	md5       string
	sessionID string
	sent      float64
	attempt   string // idempotency key the commit carries
}

// BeginUpload implements Client: it starts an upload session (the start
// call itself carries no data; the first WriteChunk may).
func (d *Dropbox) BeginUpload(p *simproc.Proc, name string, size float64, md5, attempt string) (UploadSession, error) {
	return d.start(p, name, md5, attempt, 0)
}

// start opens an upload session; the start call itself carries the
// file's first `first` bytes.
func (d *Dropbox) start(p *simproc.Proc, name, md5, attempt string, first float64) (UploadSession, error) {
	body, err := d.apiCall(p, "/2/files/upload_session/start", []byte("{}"), first, "", "")
	if err != nil {
		return nil, fmt.Errorf("sdk: dropbox session start: %w", err)
	}
	var start jsonwire.SessionStart
	if err := start.Decode(body); err != nil || start.SessionID == "" {
		return nil, fmt.Errorf("sdk: dropbox session start: bad response")
	}
	return &dropboxSession{d: d, name: name, md5: md5, sessionID: start.SessionID, sent: first, attempt: attempt}, nil
}

// Written implements UploadSession.
func (s *dropboxSession) Written() float64 { return s.sent }

// WriteChunk implements UploadSession.
func (s *dropboxSession) WriteChunk(p *simproc.Proc, n float64, last bool) (FileInfo, error) {
	// The offset the chunk moves rides in the next Dropbox-API-Arg.
	if !(n >= 0) || math.IsInf(n, 1) {
		return FileInfo{}, fmt.Errorf("sdk: chunk must be non-negative and finite")
	}
	var buf [argBuf]byte
	cursor := jsonwire.DropboxCursor{SessionID: s.sessionID, Offset: s.sent}
	if last {
		arg := jsonwire.DropboxFinish{Commit: jsonwire.DropboxPath{Path: s.name}, Cursor: cursor}.AppendJSON(buf[:0])
		body, err := s.d.apiCall(p, "/2/files/upload_session/finish", arg, n, s.md5, s.attempt)
		if err != nil {
			return FileInfo{}, fmt.Errorf("sdk: dropbox finish: %w", err)
		}
		s.sent += n
		return decodeMeta(body)
	}
	arg := jsonwire.DropboxAppend{Cursor: cursor}.AppendJSON(buf[:0])
	if _, err := s.d.apiCall(p, "/2/files/upload_session/append_v2", arg, n, "", ""); err != nil {
		return FileInfo{}, fmt.Errorf("sdk: dropbox append at %.0f: %w", s.sent, err)
	}
	s.sent += n
	return FileInfo{}, nil
}

// Token implements UploadSession.
func (s *dropboxSession) Token() SessionToken {
	return SessionToken{
		Provider: s.d.ProviderName(), Ref: s.sessionID,
		Name: s.name, Offset: s.sent, MD5: s.md5,
	}
}

// Resume implements SessionResumer. Dropbox has no offset-query
// endpoint; instead the client probes with a zero-byte append at its
// believed offset and, on the 409 incorrect_offset response, adopts the
// server's correct_offset — the self-correction dance the real API
// documents.
func (d *Dropbox) Resume(p *simproc.Proc, tok SessionToken, attempt string) (UploadSession, error) {
	if tok.Ref == "" {
		return nil, fmt.Errorf("sdk: resume needs a session id")
	}
	// The offset rides in the probe's Dropbox-API-Arg, and JSON has no
	// NaN or ±Inf.
	if !(tok.Offset >= 0) || math.IsInf(tok.Offset, 1) {
		return nil, fmt.Errorf("sdk: resume offset must be non-negative and finite")
	}
	sess := &dropboxSession{d: d, name: tok.Name, md5: tok.MD5, sessionID: tok.Ref, sent: tok.Offset, attempt: attempt}
	arg := jsonwire.DropboxAppend{Cursor: jsonwire.DropboxCursor{SessionID: tok.Ref, Offset: tok.Offset}}.AppendJSON(nil)
	if _, err := d.apiCall(p, "/2/files/upload_session/append_v2", arg, 0, "", ""); err != nil {
		var se *httpsim.StatusError
		if errors.As(err, &se) && se.Status == httpsim.StatusConflict {
			var body jsonwire.OffsetConflict
			if jerr := json.Unmarshal([]byte(se.Body), &body); jerr == nil {
				sess.sent = body.CorrectOffset
				return sess, nil
			}
		}
		return nil, fmt.Errorf("sdk: dropbox resume: %w", err)
	}
	return sess, nil
}

// --- OneDrive ---

// BeginUpload implements Client: it creates a OneDrive upload session;
// OneDrive requires the total size for fragment range math.
func (o *OneDrive) BeginUpload(p *simproc.Proc, name string, size float64, md5, attempt string) (UploadSession, error) {
	if size <= 0 {
		return nil, fmt.Errorf("sdk: session needs positive size")
	}
	req, err := o.authed(p, "POST", "/v1.0/drive/root:/"+name+":/createUploadSession")
	if err != nil {
		return nil, err
	}
	resp, err := o.do(p, req)
	if err != nil {
		return nil, fmt.Errorf("sdk: onedrive session: %w", err)
	}
	var sess jsonwire.UploadSession
	if err := sess.Decode(resp.Body); err != nil || sess.UploadURL == "" {
		return nil, fmt.Errorf("sdk: onedrive session: bad response")
	}
	return &rangeSession{rangeProto: oneDriveRanges, b: &o.base, url: sess.UploadURL, size: size, md5: md5, attempt: attempt}, nil
}

var (
	_ UploadSession  = (*rangeSession)(nil)
	_ UploadSession  = (*dropboxSession)(nil)
	_ SessionResumer = (*GoogleDrive)(nil)
	_ SessionResumer = (*Dropbox)(nil)
)
