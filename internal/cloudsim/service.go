package cloudsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
	"detournet/internal/oauthsim"
	"detournet/internal/simclock"
	"detournet/internal/transport"
)

// Style selects which provider protocol a Service speaks.
type Style int

const (
	// GoogleDrive: resumable-session init, then one (or few) large PUTs.
	GoogleDrive Style = iota
	// Dropbox: upload_session start/append_v2/finish with small chunks.
	Dropbox
	// OneDrive: createUploadSession, then Content-Range fragment PUTs.
	OneDrive
)

func (s Style) String() string {
	switch s {
	case GoogleDrive:
		return "GoogleDrive"
	case Dropbox:
		return "Dropbox"
	case OneDrive:
		return "OneDrive"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// DefaultChunkBytes returns the upload chunk/fragment size the 2015-era
// client libraries used for this provider.
func (s Style) DefaultChunkBytes() float64 {
	switch s {
	case GoogleDrive:
		return 8 << 20
	case Dropbox:
		return 4 << 20
	case OneDrive:
		return 10 << 20
	default:
		return 8 << 20
	}
}

// APIPort is the HTTPS port every provider listens on.
const APIPort = 443

// Service is one provider instance: API frontend host, auth server,
// object store, and protocol handlers.
type Service struct {
	Name  string
	Host  string
	Style Style
	Auth  *oauthsim.AuthServer
	Store *ObjectStore
	HTTP  *httpsim.Server

	eng      *simclock.Engine
	sessions map[string]*uploadSession
	nextSess int

	// Requests counts API requests served (excluding the token endpoint),
	// exposed for tests and ablations.
	Requests int

	// Fault-injection knobs, driven by internal/faults.
	//
	// Down, when true, makes every protected endpoint answer 503 — a
	// provider-PoP outage. ErrorRate and ThrottleRate inject seeded
	// transient 500s/429s on protected requests with the given
	// probability (both require FaultRand; the sim serializes requests,
	// so a seeded source keeps runs deterministic).
	Down         bool
	ErrorRate    float64
	ThrottleRate float64
	FaultRand    *rand.Rand

	// SessionsReclaimed counts abandoned upload sessions garbage-
	// collected by ReclaimQuota.
	SessionsReclaimed int

	// SlowFor is the gray-failure knob: per-source ingestion throttling
	// that NEVER errors. A request from a mapped remote host is served
	// normally — 200s all the way — but its payload is ingested at the
	// mapped bytes/second, the way real providers silently rate-limit
	// one peering point while everyone else stays fast. nil means no
	// slow-path throttling.
	SlowFor map[string]float64
	// SlowedRequests counts requests served through SlowFor windows.
	SlowedRequests int

	// InjectedFaults counts requests failed by the knobs above.
	InjectedFaults int
}

type uploadSession struct {
	id       string
	name     string
	total    float64 // declared size; 0 when unknown (Dropbox)
	received float64
	done     bool
	lastUsed simclock.Time
}

// NewService builds a provider and mounts its routes. Call Start to bind
// the listener and begin serving.
func NewService(eng *simclock.Engine, tn *transport.Net, name, host string, style Style) *Service {
	s := &Service{
		Name:  name,
		Host:  host,
		Style: style,
		Auth:  oauthsim.NewAuthServer(eng),
		Store: NewObjectStore(eng),
		HTTP:  httpsim.NewServer(tn),

		eng:      eng,
		sessions: make(map[string]*uploadSession),
	}
	s.Auth.Mount(s.HTTP)
	switch style {
	case GoogleDrive:
		s.mountGoogleDrive()
	case Dropbox:
		s.mountDropbox()
	case OneDrive:
		s.mountOneDrive()
	default:
		panic("cloudsim: unknown style")
	}
	s.mountCompose()
	return s
}

// Start binds the API listener on the service host and serves forever.
func (s *Service) Start(tn *transport.Net) *transport.Listener {
	l := tn.MustListen(s.Host, APIPort)
	s.HTTP.Serve(l)
	return l
}

func (s *Service) newSession(name string, total float64) *uploadSession {
	sess := &uploadSession{
		id:       fmt.Sprintf("sess-%d", s.nextSess),
		name:     name,
		total:    total,
		lastUsed: s.eng.Now(),
	}
	s.nextSess++
	s.sessions[sess.id] = sess
	return sess
}

// quotaRetryAfter is the Retry-After pacing hint (virtual seconds)
// stamped on 507 insufficient-storage responses. Schedulers floor
// their backoff with it when parking a quota-exhausted job.
const quotaRetryAfter = 15.0

// pendingSessionBytes sums the bytes received into upload sessions
// that have not committed yet. Live sessions hold real storage — the
// real providers charge in-progress resumable uploads against the
// tenant's quota — so quota admission counts them.
func (s *Service) pendingSessionBytes() float64 {
	var n float64
	for _, sess := range s.sessions {
		if !sess.done {
			n += sess.received
		}
	}
	return n
}

// PendingBytes reports the uncommitted bytes live upload sessions
// hold against the quota — the operator's view of drain pressure.
func (s *Service) PendingBytes() float64 { return s.pendingSessionBytes() }

// admitSessionBytes checks n more session bytes against the quota,
// answering 507 Insufficient Storage when they cannot fit next to the
// committed objects and every other live session's pending bytes.
func (s *Service) admitSessionBytes(n float64) *httpsim.Response {
	q := s.Store.Quota
	if q <= 0 || n <= 0 {
		return nil
	}
	if s.Store.Used()+s.pendingSessionBytes()+n > q {
		return s.insufficientStorage(ErrQuotaExceeded.Error())
	}
	return nil
}

// insufficientStorage builds the 507 response with the Retry-After
// pacing hint quota-parked schedulers honor.
func (s *Service) insufficientStorage(msg string) *httpsim.Response {
	resp := errResp(httpsim.StatusInsufficientStorage, msg)
	resp.Header.Set("Retry-After", fmt.Sprintf("%.3f", quotaRetryAfter))
	return resp
}

// putErr maps a store write failure to the provider's wire answer:
// quota exhaustion is 507 Insufficient Storage with a Retry-After
// hint; anything else stays 413 as before.
func (s *Service) putErr(err error) *httpsim.Response {
	if errors.Is(err, ErrQuotaExceeded) {
		return s.insufficientStorage(err.Error())
	}
	return errResp(httpsim.StatusPayloadTooLarge, err.Error())
}

// ReclaimQuota garbage-collects abandoned upload sessions — sessions
// that never committed and have been idle for at least idleSecs — and
// returns the pending bytes freed. This is the provider-side half of
// quota-reclaim: a scheduler that hits 507 asks for a cleanup pass
// before giving up on the provider. Deterministic: sessions are
// visited in sorted id order.
func (s *Service) ReclaimQuota(idleSecs float64) float64 {
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := s.eng.Now()
	var freed float64
	for _, id := range ids {
		sess := s.sessions[id]
		if sess.done || sess.received <= 0 {
			continue
		}
		if float64(now-sess.lastUsed) < idleSecs {
			continue
		}
		freed += sess.received
		delete(s.sessions, id)
		s.SessionsReclaimed++
	}
	return freed
}

// InjectAbandonedSession opens a synthetic upload session already
// holding n pending bytes — the fault injector's quota-drain hook. The
// session is never committed and never touched again, so it charges
// the tenant's quota (pendingSessionBytes) and ages toward
// ReclaimQuota eligibility exactly like a genuinely abandoned
// resumable upload. Returns the session id for a later DropSession.
func (s *Service) InjectAbandonedSession(name string, n float64) string {
	sess := s.newSession(name, n)
	sess.received = n
	return sess.id
}

// DropSession deletes a session by id, reporting whether it still
// existed — the quota-drain window closing (ReclaimQuota may have
// collected the session already, which is fine).
func (s *Service) DropSession(id string) bool {
	if _, ok := s.sessions[id]; !ok {
		return false
	}
	delete(s.sessions, id)
	return true
}

// session looks up an upload session and marks it used now, which
// keeps it from ReclaimQuota's idle sweep.
func (s *Service) session(id string) (*uploadSession, bool) {
	sess, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	sess.lastUsed = s.eng.Now()
	return sess, true
}

// protect wraps a handler with OAuth, fault injection, and request
// counting.
func (s *Service) protect(fn httpsim.HandlerFunc) httpsim.HandlerFunc {
	inner := s.Auth.Protect(fn)
	return func(ctx *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
		if resp := s.injectFault(); resp != nil {
			return resp
		}
		s.Requests++
		if rate, ok := s.SlowFor[ctx.RemoteHost]; ok && rate > 0 && req.ContentLength() > 0 {
			// Slow-but-200: ingest this source's payload at the throttled
			// rate before handling. The client sees nothing but latency.
			s.SlowedRequests++
			ctx.Proc.Sleep(req.ContentLength() / rate)
		}
		return inner(ctx, req)
	}
}

// injectFault applies the fault-injection knobs; nil means the request
// proceeds normally.
func (s *Service) injectFault() *httpsim.Response {
	if s.Down {
		s.InjectedFaults++
		return errResp(httpsim.StatusServiceUnavailable, "service unavailable")
	}
	if s.FaultRand != nil {
		if s.ThrottleRate > 0 && s.FaultRand.Float64() < s.ThrottleRate {
			s.InjectedFaults++
			return &httpsim.Response{
				Status: httpsim.StatusTooManyRequests,
				Header: httpsim.Header{{Key: "Retry-After", Value: "1.000"}},
				Body:   []byte("injected throttle"),
			}
		}
		if s.ErrorRate > 0 && s.FaultRand.Float64() < s.ErrorRate {
			s.InjectedFaults++
			return errResp(httpsim.StatusInternalServerError, "injected error")
		}
	}
	return nil
}

// jsonResp answers with a JSON body a jsonwire encoder wrote.
func jsonResp(status int, body []byte) *httpsim.Response {
	return &httpsim.Response{Status: status, Body: body,
		Header: httpsim.Header{{Key: "Content-Type", Value: "application/json"}}}
}

func errResp(status int, msg string) *httpsim.Response {
	return jsonResp(status, jsonwire.ErrorBody{Error: msg}.AppendJSON(nil))
}

// metaOf is the metadata the provider responses carry for an object.
func metaOf(o *Object) jsonwire.FileMeta {
	return jsonwire.FileMeta{ID: o.ID, Name: o.Name, Size: o.Size, MD5: o.MD5}
}

// metaResp answers with an object's metadata, the body of every commit.
func metaResp(status int, o *Object) *httpsim.Response {
	return jsonResp(status, metaOf(o).AppendJSON(make([]byte, 0, 128)))
}

// parseContentRange parses "bytes lo-hi/total": lo, hi and total are
// unsigned decimal integers with lo <= hi < total, and total may be "*"
// (returned as -1) when the client does not know it yet.
func parseContentRange(v string) (lo, hi, total float64, err error) {
	bad := func() error { return fmt.Errorf("cloudsim: bad Content-Range %q", v) }
	rest, ok := strings.CutPrefix(v, "bytes ")
	if !ok {
		return 0, 0, 0, bad()
	}
	span, totStr, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, 0, 0, bad()
	}
	loStr, hiStr, ok := strings.Cut(span, "-")
	if !ok {
		return 0, 0, 0, bad()
	}
	l, errLo := strconv.ParseUint(loStr, 10, 64)
	h, errHi := strconv.ParseUint(hiStr, 10, 64)
	if errLo != nil || errHi != nil {
		return 0, 0, 0, bad()
	}
	if h < l {
		return 0, 0, 0, fmt.Errorf("cloudsim: inverted Content-Range %q", v)
	}
	total = -1
	if totStr != "*" {
		t, err := strconv.ParseUint(totStr, 10, 64)
		if err != nil || t <= h {
			return 0, 0, 0, fmt.Errorf("cloudsim: bad Content-Range total %q", totStr)
		}
		total = float64(t)
	}
	return float64(l), float64(h), total, nil
}
