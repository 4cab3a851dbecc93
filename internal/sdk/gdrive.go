package sdk

import (
	"encoding/json"
	"fmt"

	"detournet/internal/cloudsim"
	"detournet/internal/jsonwire"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// GoogleDrive is the Drive v3 client: resumable session initiation
// followed by Content-Range PUTs of (by default) 8 MiB.
type GoogleDrive struct {
	base
}

// NewGoogleDrive returns a Drive client dialing from `from` to the API
// frontend at `host`.
func NewGoogleDrive(eng *simclock.Engine, tn *transport.Net, from, host string, creds Credentials, opts Options) *GoogleDrive {
	return &GoogleDrive{base: newBase(eng, tn, from, host, creds, cloudsim.GoogleDrive, opts)}
}

// ProviderName implements Client.
func (g *GoogleDrive) ProviderName() string { return "GoogleDrive" }

// Upload implements Client via the resumable protocol. Empty files are
// a single bare PUT (there is no valid Content-Range for zero bytes);
// everything else goes in Content-Range chunks.
func (g *GoogleDrive) Upload(p *simproc.Proc, name string, size float64, md5 string) (FileInfo, error) {
	if size != 0 {
		sess, err := g.BeginUpload(p, name, size, md5, "")
		if err != nil {
			return FileInfo{}, err
		}
		return writeAll(p, sess, size, g.chunk)
	}
	location, err := g.initiate(p, name, size)
	if err != nil {
		return FileInfo{}, err
	}
	put, err := g.authed(p, "PUT", location)
	if err != nil {
		return FileInfo{}, err
	}
	resp, err := g.do(p, put)
	if err != nil {
		return FileInfo{}, fmt.Errorf("sdk: drive empty upload: %w", err)
	}
	return decodeMeta(resp.Body)
}

// lookup resolves a name to metadata via the files search endpoint.
func (g *GoogleDrive) lookup(p *simproc.Proc, name string) (FileInfo, error) {
	req, err := g.authed(p, "GET", "/drive/v3/files?q=name='"+name+"'")
	if err != nil {
		return FileInfo{}, err
	}
	resp, err := g.do(p, req)
	if err != nil {
		return FileInfo{}, err
	}
	var out jsonwire.FileList
	if err := json.Unmarshal(resp.Body, &out); err != nil {
		return FileInfo{}, fmt.Errorf("sdk: bad list response: %w", err)
	}
	if len(out.Files) == 0 {
		return FileInfo{}, fmt.Errorf("sdk: drive: no file named %q", name)
	}
	return FileInfo(out.Files[0]), nil
}

// Stat implements Stater: a metadata-only lookup by name.
func (g *GoogleDrive) Stat(p *simproc.Proc, name string) (FileInfo, error) {
	return g.lookup(p, name)
}

// Download implements Client: name lookup, then an alt=media GET.
func (g *GoogleDrive) Download(p *simproc.Proc, name string) (FileInfo, error) {
	fi, err := g.lookup(p, name)
	if err != nil {
		return FileInfo{}, err
	}
	req, err := g.authed(p, "GET", "/drive/v3/files/"+fi.ID+"?alt=media")
	if err != nil {
		return FileInfo{}, err
	}
	if _, err := g.do(p, req); err != nil {
		return FileInfo{}, err
	}
	return fi, nil
}

// Delete implements Client: lookup then DELETE by id.
func (g *GoogleDrive) Delete(p *simproc.Proc, name string) error {
	fi, err := g.lookup(p, name)
	if err != nil {
		return err
	}
	req, err := g.authed(p, "DELETE", "/drive/v3/files/"+fi.ID)
	if err != nil {
		return err
	}
	_, err = g.do(p, req)
	return err
}

var _ Client = (*GoogleDrive)(nil)
