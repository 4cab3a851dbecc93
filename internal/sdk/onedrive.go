package sdk

import (
	"detournet/internal/cloudsim"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// OneDrive is the Graph-style client the paper's authors approximated
// with a patched community Java library: createUploadSession followed by
// 10 MiB Content-Range fragment PUTs.
type OneDrive struct {
	base
}

// NewOneDrive returns a OneDrive client dialing from `from` to `host`.
func NewOneDrive(eng *simclock.Engine, tn *transport.Net, from, host string, creds Credentials, opts Options) *OneDrive {
	return &OneDrive{base: newBase(eng, tn, from, host, creds, cloudsim.OneDrive, opts)}
}

// ProviderName implements Client.
func (o *OneDrive) ProviderName() string { return "OneDrive" }

// Upload implements Client.
func (o *OneDrive) Upload(p *simproc.Proc, name string, size float64, md5 string) (FileInfo, error) {
	if size == 0 {
		size = 1 // OneDrive rejects zero-length fragment math; store a 1-byte sentinel
	}
	sess, err := o.BeginUpload(p, name, size, md5, "")
	if err != nil {
		return FileInfo{}, err
	}
	return writeAll(p, sess, size, o.chunk)
}

// Download implements Client.
func (o *OneDrive) Download(p *simproc.Proc, name string) (FileInfo, error) {
	req, err := o.authed(p, "GET", "/v1.0/drive/root:/"+name+":/content")
	if err != nil {
		return FileInfo{}, err
	}
	resp, err := o.do(p, req)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: name, Size: resp.BodySize}, nil
}

// Delete implements Client.
func (o *OneDrive) Delete(p *simproc.Proc, name string) error {
	req, err := o.authed(p, "DELETE", "/v1.0/drive/root:/"+name)
	if err != nil {
		return err
	}
	_, err = o.do(p, req)
	return err
}

var _ Client = (*OneDrive)(nil)
