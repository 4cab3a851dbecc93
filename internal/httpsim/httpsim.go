// Package httpsim is a minimal HTTP/1.1 emulation over the simulated
// transport: requests and responses are structured messages whose wire
// time is driven by their serialized size, servers are mux-dispatched
// handlers running as simulation processes, and clients keep
// per-host:port connections alive the way the providers' real API
// libraries do.
//
// The point is not to re-implement net/http but to charge realistic wire
// and round-trip costs to the REST conversations the cloud-storage SDKs
// hold (session initiation, per-chunk PUTs, JSON status replies).
package httpsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// Standard-ish status codes used by the provider emulations.
const (
	StatusOK                  = 200
	StatusCreated             = 201
	StatusNoContent           = 204
	StatusPermanentRedirect   = 308
	StatusBadRequest          = 400
	StatusUnauthorized        = 401
	StatusNotFound            = 404
	StatusConflict            = 409
	StatusPayloadTooLarge     = 413
	StatusTooManyRequests     = 429
	StatusInternalServerError = 500
	StatusServiceUnavailable  = 503
	// StatusInsufficientStorage (WebDAV, RFC 4918) is what the provider
	// emulations answer when the tenant's storage quota is spent — the
	// quota-exhaustion signal schedulers park or spill on.
	StatusInsufficientStorage = 507
)

// baseHeaderBytes approximates request/status line + mandatory headers.
const baseHeaderBytes = 180

// Field is one header line.
type Field struct{ Key, Value string }

// Header holds a message's header fields, at most one per key, in the
// order they were first set. Messages carry a handful of fields, so a
// slice scanned per lookup beats a map and costs one allocation.
type Header []Field

// Value returns the value set for key and whether there is one.
func (h Header) Value(key string) (string, bool) {
	for _, f := range h {
		if f.Key == key {
			return f.Value, true
		}
	}
	return "", false
}

// Get returns the value set for key, or "" when there is none.
func (h Header) Get(key string) string {
	v, _ := h.Value(key)
	return v
}

// Set sets key to value, replacing the value already set for key.
func (h *Header) Set(key, value string) {
	for i := range *h {
		if (*h)[i].Key == key {
			(*h)[i].Value = value
			return
		}
	}
	*h = append(*h, Field{key, value})
}

// size is the header's wire size: each field's key and value plus
// ": " and CRLF.
func (h Header) size() float64 {
	var n float64
	for _, f := range h {
		n += float64(len(f.Key) + len(f.Value) + 4)
	}
	return n
}

// Request is an HTTP request. Body carries real bytes when the payload
// matters to the application (JSON, rsync deltas); BodySize alone sizes
// bulk payloads (file contents) without materializing them.
type Request struct {
	Method string
	Path   string
	Host   string
	Header Header
	Body   []byte
	// BodySize is the body's wire size in bytes when Body is nil.
	BodySize float64
}

// Size returns the request's wire size in bytes.
func (r *Request) Size() float64 {
	n := float64(baseHeaderBytes+len(r.Method)+len(r.Path)+len(r.Host)) + r.Header.size()
	return n + r.bodyBytes()
}

func (r *Request) bodyBytes() float64 {
	if r.Body != nil {
		return float64(len(r.Body))
	}
	return r.BodySize
}

// ContentLength returns the body size in bytes.
func (r *Request) ContentLength() float64 { return r.bodyBytes() }

// Response is an HTTP response; sizing mirrors Request.
type Response struct {
	Status   int
	Header   Header
	Body     []byte
	BodySize float64
}

// Size returns the response's wire size in bytes.
func (r *Response) Size() float64 {
	n := float64(baseHeaderBytes) + r.Header.size()
	if r.Body != nil {
		return n + float64(len(r.Body))
	}
	return n + r.BodySize
}

// OK reports whether the status is 2xx.
func (r *Response) OK() bool { return r.Status >= 200 && r.Status < 300 }

// StatusError is the typed error for a non-2xx response, so callers can
// branch on the status class (429 vs 5xx vs 4xx) with errors.As instead
// of string matching.
type StatusError struct {
	Status int
	Body   string
	// RetryAfter is the parsed Retry-After header in seconds (0 when the
	// response carried none). Surfaced so callers above the SDK's own
	// throttle loop — the scheduler's backoff, notably — can honor the
	// provider's pacing hint instead of guessing.
	RetryAfter float64
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpsim: status %d: %s", e.Status, e.Body)
}

// Error converts a non-2xx response into a Go error (nil for 2xx). The
// returned error is a *StatusError.
func (r *Response) Error() error {
	if r.OK() {
		return nil
	}
	se := &StatusError{Status: r.Status, Body: strings.TrimSpace(string(r.Body))}
	if v, ok := r.Header.Value("Retry-After"); ok {
		se.RetryAfter = retryAfter(v)
	}
	return se
}

// retryAfter reads a Retry-After count of seconds: a finite,
// non-negative decimal number. Anything else reads as 0, as no header.
func retryAfter(v string) float64 {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) || f < 0 {
		return 0
	}
	return f
}

// Ctx is passed to handlers.
type Ctx struct {
	// Proc is the handler's simulation process; handlers may Sleep on it
	// to model server-side work.
	Proc *simproc.Proc
	// RemoteHost is the client's topology host name.
	RemoteHost string
}

// HandlerFunc serves one request.
type HandlerFunc func(ctx *Ctx, req *Request) *Response

// route matches a method and a path prefix.
type route struct {
	method string
	prefix string
	fn     HandlerFunc
}

// Server dispatches requests to handlers. ProcessingDelay is charged per
// request before the handler runs, modelling the provider's backend
// latency.
type Server struct {
	net             *transport.Net
	routes          []route
	ProcessingDelay float64
}

// NewServer returns an empty server over the transport.
func NewServer(net *transport.Net) *Server {
	if net == nil {
		panic("httpsim: nil transport")
	}
	return &Server{net: net, ProcessingDelay: 0.002}
}

// Handle registers fn for a method and path prefix. Longest prefix wins;
// method "*" matches any method.
func (s *Server) Handle(method, prefix string, fn HandlerFunc) {
	if fn == nil {
		panic("httpsim: nil handler")
	}
	s.routes = append(s.routes, route{method: method, prefix: prefix, fn: fn})
	sort.SliceStable(s.routes, func(i, j int) bool {
		return len(s.routes[i].prefix) > len(s.routes[j].prefix)
	})
}

func (s *Server) dispatch(ctx *Ctx, req *Request) *Response {
	for _, rt := range s.routes {
		if (rt.method == "*" || rt.method == req.Method) && strings.HasPrefix(req.Path, rt.prefix) {
			return rt.fn(ctx, req)
		}
	}
	return &Response{Status: StatusNotFound, Body: []byte("no route for " + req.Method + " " + req.Path)}
}

// Serve runs the accept loop on the listener until the listener closes.
// Each connection is handled by its own process; requests on one
// connection are served in order (HTTP/1.1 without pipelining).
func (s *Server) Serve(l *transport.Listener) {
	r := s.net.Runner()
	r.Go("http-accept:"+l.Addr(), func(p *simproc.Proc) {
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			r.Go("http-conn:"+c.RemoteHost(), func(hp *simproc.Proc) {
				s.serveConn(hp, c)
			})
		}
	})
}

func (s *Server) serveConn(p *simproc.Proc, c *transport.Conn) {
	defer c.Close()
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return
		}
		req, ok := msg.Payload.(*Request)
		if !ok {
			return // protocol error; drop the connection
		}
		if s.ProcessingDelay > 0 {
			p.Sleep(s.ProcessingDelay)
		}
		resp := s.dispatch(&Ctx{Proc: p, RemoteHost: c.RemoteHost()}, req)
		if resp == nil {
			resp = &Response{Status: StatusInternalServerError}
		}
		if err := c.Send(p, resp, resp.Size()); err != nil {
			return
		}
	}
}

// Client issues requests from a fixed source host, keeping one
// connection per (host, port, tls) alive across requests.
type Client struct {
	net  *transport.Net
	from string
	tls  bool
	port int

	conns   map[string]*transport.Conn
	dialing map[string]*simproc.Future[*transport.Conn]
}

// NewClient returns a client dialing from fromHost. tls and port apply
// to every request (the provider SDKs all speak HTTPS on 443).
func NewClient(net *transport.Net, fromHost string, port int, tls bool) *Client {
	if net == nil {
		panic("httpsim: nil transport")
	}
	return &Client{
		net: net, from: fromHost, tls: tls, port: port,
		conns:   make(map[string]*transport.Conn),
		dialing: make(map[string]*simproc.Future[*transport.Conn]),
	}
}

// conn returns the kept-alive connection to host, dialing if needed.
// Concurrent first users coalesce onto a single dial: the handshake
// parks the dialing process, and without coalescing a second caller
// would dial again and leak the first connection.
func (c *Client) conn(p *simproc.Proc, host string) (*transport.Conn, error) {
	for {
		if cc, ok := c.conns[host]; ok && !cc.Closed() {
			return cc, nil
		}
		f, inflight := c.dialing[host]
		if !inflight {
			break
		}
		if cc := simproc.Await(p, f); cc != nil && !cc.Closed() {
			return cc, nil
		}
		// The coalesced dial failed or the conn already died; try again.
	}
	f := simproc.NewFuture[*transport.Conn](c.net.Runner())
	c.dialing[host] = f
	cc, err := c.net.Dial(p, c.from, host, c.port, transport.DialOpts{TLS: c.tls})
	delete(c.dialing, host)
	if err != nil {
		f.Set(nil)
		return nil, err
	}
	c.conns[host] = cc
	f.Set(cc)
	return cc, nil
}

// Do sends the request to req.Host and blocks for the response, redialing
// once if a kept-alive connection turned out dead.
func (c *Client) Do(p *simproc.Proc, req *Request) (*Response, error) {
	if req.Host == "" {
		return nil, fmt.Errorf("httpsim: request without Host")
	}
	for attempt := 0; attempt < 2; attempt++ {
		cc, err := c.conn(p, req.Host)
		if err != nil {
			return nil, err
		}
		msg, err := cc.Exchange(p, req, req.Size())
		if err != nil {
			cc.Close()
			delete(c.conns, req.Host)
			continue
		}
		resp, ok := msg.Payload.(*Response)
		if !ok {
			return nil, fmt.Errorf("httpsim: non-response payload %T", msg.Payload)
		}
		return resp, nil
	}
	return nil, fmt.Errorf("httpsim: request to %s failed after retry", req.Host)
}

// CloseIdle closes all kept-alive connections.
func (c *Client) CloseIdle() {
	for k, cc := range c.conns {
		cc.Close()
		delete(c.conns, k)
	}
}
