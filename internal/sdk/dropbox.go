package sdk

import (
	"fmt"
	"math"

	"detournet/internal/cloudsim"
	"detournet/internal/jsonwire"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// Dropbox is the API-v2 client: single-shot upload for files that fit in
// one chunk, upload sessions (start / append_v2 / finish) otherwise,
// with the 4 MiB chunks of the 2015 Java SDK.
type Dropbox struct {
	base
}

// NewDropbox returns a Dropbox client dialing from `from` to `host`.
func NewDropbox(eng *simclock.Engine, tn *transport.Net, from, host string, creds Credentials, opts Options) *Dropbox {
	return &Dropbox{base: newBase(eng, tn, from, host, creds, cloudsim.Dropbox, opts)}
}

// ProviderName implements Client.
func (d *Dropbox) ProviderName() string { return "Dropbox" }

// argBuf sizes the stack buffer the per-chunk Dropbox-API-Args are
// encoded into; a longer one grows onto the heap.
const argBuf = 128

// apiCall posts to a Dropbox endpoint with arg, a jsonwire encoder's
// bytes, as its Dropbox-API-Arg header.
func (d *Dropbox) apiCall(p *simproc.Proc, path string, arg []byte, bodySize float64, md5, attempt string) ([]byte, error) {
	req, err := d.authed(p, "POST", path)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Dropbox-API-Arg", string(arg))
	req.Header.Set("Content-Type", "application/octet-stream")
	if md5 != "" {
		req.Header.Set("X-Content-MD5", md5)
	}
	tagAttempt(req, attempt)
	req.BodySize = bodySize
	resp, err := d.do(p, req)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Upload implements Client: one single-shot call when the file fits in
// a chunk, otherwise a session whose start carries the first chunk.
func (d *Dropbox) Upload(p *simproc.Proc, name string, size float64, md5 string) (FileInfo, error) {
	// The chunk loop runs until the size is written: NaN or +Inf never is.
	if !(size >= 0) || math.IsInf(size, 1) {
		return FileInfo{}, fmt.Errorf("sdk: size %v must be non-negative and finite", size)
	}
	if size <= d.chunk {
		var buf [argBuf]byte
		body, err := d.apiCall(p, "/2/files/upload", jsonwire.DropboxPath{Path: name}.AppendJSON(buf[:0]), size, md5, "")
		if err != nil {
			return FileInfo{}, fmt.Errorf("sdk: dropbox upload: %w", err)
		}
		return decodeMeta(body)
	}
	sess, err := d.start(p, name, md5, "", d.chunk)
	if err != nil {
		return FileInfo{}, err
	}
	return writeAll(p, sess, size, d.chunk)
}

// Download implements Client.
func (d *Dropbox) Download(p *simproc.Proc, name string) (FileInfo, error) {
	req, err := d.authed(p, "POST", "/2/files/download")
	if err != nil {
		return FileInfo{}, err
	}
	req.Header.Set("Dropbox-API-Arg", string(jsonwire.DropboxPath{Path: name}.AppendJSON(nil)))
	resp, err := d.do(p, req)
	if err != nil {
		return FileInfo{}, err
	}
	var m jsonwire.FileMeta
	if raw, ok := resp.Header.Value("Dropbox-API-Result"); ok {
		if err := m.Decode([]byte(raw)); err != nil {
			return FileInfo{}, fmt.Errorf("sdk: bad Dropbox-API-Result: %w", err)
		}
	}
	m.Size = resp.BodySize
	return FileInfo(m), nil
}

// Delete implements Client.
func (d *Dropbox) Delete(p *simproc.Proc, name string) error {
	_, err := d.apiCall(p, "/2/files/delete_v2", jsonwire.DropboxPath{Path: name}.AppendJSON(nil), 0, "", "")
	return err
}

var _ Client = (*Dropbox)(nil)
