// Package sdk provides client libraries for the simulated cloud-storage
// providers — the counterpart of the official Java SDKs the paper's
// measurement programs linked against (and the community OneDrive
// library they patched). Each client speaks its provider's real upload
// protocol over the simulated HTTPS transport: OAuth2 token refresh,
// session initiation, chunk/fragment PUTs, and downloads.
//
// Every client implements one interface, Client. Each provider's upload
// protocol lives in its UploadSession; a whole-file Upload opens a
// session and writes it out (writeAll), so the chunk requests are
// written once per provider. The idempotency key that makes a
// crash-replayed commit safe is an argument of BeginUpload and Resume,
// carried by the session to its committing request, never state on a
// client that many transfers share.
package sdk

import (
	"fmt"
	"strconv"

	"detournet/internal/cloudsim"
	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
	"detournet/internal/oauthsim"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// FileInfo describes an uploaded or downloaded object.
type FileInfo struct {
	ID   string  `json:"id"`
	Name string  `json:"name"`
	Size float64 `json:"size"`
	MD5  string  `json:"md5,omitempty"`
}

// Client is the provider-independent surface the detour relay and the
// examples program against.
type Client interface {
	// ProviderName identifies the service ("GoogleDrive", ...).
	ProviderName() string
	// Host returns the provider's API frontend host.
	Host() string
	// From returns the client's source host.
	From() string
	// Upload stores size bytes under name and returns the stored
	// metadata. md5 optionally carries a content digest for integrity.
	// Its commit carries no idempotency key.
	Upload(p *simproc.Proc, name string, size float64, md5 string) (FileInfo, error)
	// BeginUpload opens an upload session for a file of the given total
	// size. md5 optionally carries an end-to-end digest committed with
	// the final chunk; attempt, when non-empty, is the idempotency key
	// the commit carries as an X-Attempt-Id header. A provider that has
	// already materialized a commit for the key answers with the stored
	// object instead of committing again — what makes a crash-replayed
	// attempt safe.
	BeginUpload(p *simproc.Proc, name string, size float64, md5, attempt string) (UploadSession, error)
	// Compose commits a striped multipath upload: the provider
	// concatenates previously uploaded part objects, in order, into the
	// final object and deletes the parts. md5 optionally carries the
	// whole-file digest recorded on the composed object. See cloudsim's
	// compose endpoint for the modeling caveat: this is a minimal
	// control-plane extension, not a 2015-era consumer API.
	Compose(p *simproc.Proc, name string, parts []string, md5 string) (FileInfo, error)
	// Download fetches name and returns its metadata (bytes are timed on
	// the wire, not materialized).
	Download(p *simproc.Proc, name string) (FileInfo, error)
	// Delete removes name.
	Delete(p *simproc.Proc, name string) error
	// Close releases kept-alive connections.
	Close()
}

// Stater is a client that can look up stored object metadata without
// moving content bytes — the recovery pre-check a restarted scheduler
// uses to learn whether an attempt committed before the crash.
type Stater interface {
	Stat(p *simproc.Proc, name string) (FileInfo, error)
}

// Credentials hold an OAuth2 client registration.
type Credentials struct {
	ClientID     string
	ClientSecret string
	RefreshToken string
}

// Options tune a client.
type Options struct {
	// ChunkBytes overrides the provider's default upload chunk size.
	ChunkBytes float64
}

// Register provisions credentials for a client id on the service's auth
// server, a setup step the paper's authors did once per provider.
func Register(svc *cloudsim.Service, clientID, secret string) Credentials {
	rt := svc.Auth.RegisterClient(clientID, secret)
	return Credentials{ClientID: clientID, ClientSecret: secret, RefreshToken: rt}
}

// base carries the machinery shared by all three clients.
type base struct {
	http  *httpsim.Client
	ts    *oauthsim.TokenSource
	host  string
	from  string
	chunk float64

	// free holds requests that nothing reads any more, for authed to
	// reuse: each one's final response arrived, and the server that
	// answered it was the only one that got it.
	free []*httpsim.Request
}

func newBase(eng *simclock.Engine, tn *transport.Net, from, host string, creds Credentials, style cloudsim.Style, opts Options) base {
	hc := httpsim.NewClient(tn, from, cloudsim.APIPort, true)
	chunk := opts.ChunkBytes
	if chunk <= 0 {
		chunk = style.DefaultChunkBytes()
	}
	return base{
		http:  hc,
		ts:    oauthsim.NewTokenSource(eng, hc, host, creds.ClientID, creds.ClientSecret, creds.RefreshToken),
		host:  host,
		from:  from,
		chunk: chunk,
	}
}

func (b *base) Host() string { return b.host }
func (b *base) From() string { return b.from }
func (b *base) Close()       { b.http.CloseIdle() }

// tagAttempt stamps the idempotency key onto a committing request.
func tagAttempt(req *httpsim.Request, attempt string) {
	if attempt != "" {
		req.Header.Set("X-Attempt-Id", attempt)
	}
}

// authed returns a request with a fresh bearer token, reusing one from
// the free list when there is one. A client shared by concurrent
// transfers hands each call its own request.
func (b *base) authed(p *simproc.Proc, method, path string) (*httpsim.Request, error) {
	hdr, err := b.ts.AuthHeader(p)
	if err != nil {
		return nil, err
	}
	var req *httpsim.Request
	var h httpsim.Header
	if k := len(b.free); k > 0 {
		req = b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
		h = req.Header[:1]
		*req = httpsim.Request{}
	} else {
		// Room for the fields a request adds after the token (a chunk
		// PUT sets four, a Dropbox call up to five), so Set does not
		// regrow.
		req, h = new(httpsim.Request), make(httpsim.Header, 1, 5)
	}
	h[0] = httpsim.Field{Key: "Authorization", Value: hdr}
	req.Method, req.Path, req.Host, req.Header = method, path, b.host, h
	return req, nil
}

// recycle puts a request whose final response has arrived back on the
// free list, unless Do resent it: the server that got the first copy
// may still be reading it.
func (b *base) recycle(req *httpsim.Request) {
	if !req.Resent() {
		b.free = append(b.free, req)
	}
}

// maxThrottleRetries bounds 429 retries per request.
const maxThrottleRetries = 8

func (b *base) do(p *simproc.Proc, req *httpsim.Request) (*httpsim.Response, error) {
	resp, err := b.doRaw(p, req)
	if err != nil {
		return nil, err
	}
	if err := resp.Error(); err != nil {
		return resp, err
	}
	return resp, nil
}

// doRaw issues the request, sleeping out 429 Retry-After responses with
// exponential backoff the way the official client libraries do. Once
// the final response is in, the request goes back to the free list: its
// caller must not touch it again.
func (b *base) doRaw(p *simproc.Proc, req *httpsim.Request) (*httpsim.Response, error) {
	backoff := 0.5
	for attempt := 0; ; attempt++ {
		resp, err := b.http.Do(p, req)
		if err != nil {
			return nil, err
		}
		if resp.Status != httpsim.StatusTooManyRequests || attempt >= maxThrottleRetries {
			b.recycle(req)
			return resp, nil
		}
		wait := backoff
		if ra, ok := resp.Header.Value("Retry-After"); ok {
			if v, perr := strconv.ParseFloat(ra, 64); perr == nil && v > 0 {
				wait = v
			}
		}
		// Official clients cap their backoff (Drive's Java SDK caps at
		// 64 s); without a ceiling a pathological Retry-After would park
		// the client forever.
		if wait > 60 {
			wait = 60
		}
		p.Sleep(wait)
		backoff *= 2
	}
}

func decodeMeta(body []byte) (FileInfo, error) {
	var m jsonwire.FileMeta
	if err := m.Decode(body); err != nil {
		return FileInfo{}, fmt.Errorf("sdk: bad metadata: %w", err)
	}
	return FileInfo(m), nil
}

// writeAll writes the rest of a session in chunk-sized pieces, the last
// one short, and returns the committed metadata: the whole-file Upload
// loop every provider shares.
func writeAll(p *simproc.Proc, sess UploadSession, size, chunk float64) (FileInfo, error) {
	for {
		n, last := chunk, false
		if rest := size - sess.Written(); rest <= chunk {
			n, last = rest, true
		}
		fi, err := sess.WriteChunk(p, n, last)
		if err != nil || last {
			return fi, err
		}
	}
}
