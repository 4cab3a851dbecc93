package sdk

import (
	"fmt"

	"detournet/internal/jsonwire"
	"detournet/internal/simproc"
)

// compose issues the style-uniform compose call shared by all three
// clients; only the endpoint path differs per provider.
func (b *base) compose(p *simproc.Proc, path, name string, parts []string, md5 string) (FileInfo, error) {
	if name == "" || len(parts) == 0 {
		return FileInfo{}, fmt.Errorf("sdk: compose needs a name and parts")
	}
	req, err := b.authed(p, "POST", path)
	if err != nil {
		return FileInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Body = jsonwire.ComposeRequest{MD5: md5, Name: name, Parts: parts}.AppendJSON(nil)
	resp, err := b.do(p, req)
	if err != nil {
		return FileInfo{}, fmt.Errorf("sdk: compose %q: %w", name, err)
	}
	return decodeMeta(resp.Body)
}

// Compose implements Client.
func (g *GoogleDrive) Compose(p *simproc.Proc, name string, parts []string, md5 string) (FileInfo, error) {
	return g.compose(p, "/drive/v3/files:compose", name, parts, md5)
}

// Compose implements Client.
func (d *Dropbox) Compose(p *simproc.Proc, name string, parts []string, md5 string) (FileInfo, error) {
	return d.compose(p, "/2/files/compose", name, parts, md5)
}

// Compose implements Client.
func (o *OneDrive) Compose(p *simproc.Proc, name string, parts []string, md5 string) (FileInfo, error) {
	return o.compose(p, "/v1.0/drive/compose", name, parts, md5)
}
