// Package core implements the paper's contribution: routing detours for
// client-to-cloud-storage transfers.
//
// A detour replaces the direct API upload with two explicit hops: an
// rsync transfer from the user machine to an intermediate data-transfer
// node (DTN), then a provider-API upload from the DTN (Fig 1 of the
// paper). The paper's detours are store-and-forward — the two hop times
// simply add (36 s = 17 s + 19 s in the UBC example) — and this package
// also provides the pipelined variant the paper leaves as future work,
// where the DTN starts uploading chunks to the provider while later
// chunks are still arriving.
package core

import (
	"fmt"

	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
	"detournet/internal/simproc"
	"detournet/internal/tracelog"
	"detournet/internal/transport"
)

// RouteKind distinguishes direct uploads from detours.
type RouteKind int

const (
	// Direct uses the provider API straight from the user machine.
	Direct RouteKind = iota
	// Detour relays through an intermediate DTN.
	Detour
)

// Route names one way of reaching a provider.
type Route struct {
	Kind RouteKind
	// Via is the DTN host name for detours; empty for direct routes.
	Via string
}

// DirectRoute is the direct route constant.
var DirectRoute = Route{Kind: Direct}

// ViaRoute returns a detour route through the named DTN.
func ViaRoute(dtn string) Route { return Route{Kind: Detour, Via: dtn} }

// String renders the route the way the paper labels its series.
func (r Route) String() string {
	if r.Kind == Direct {
		return "Direct"
	}
	return "via " + r.Via
}

// Report is the outcome of one transfer.
type Report struct {
	Route Route
	// Total is the end-to-end transfer time in virtual seconds.
	Total float64
	// Hop1 is the user→DTN leg (zero for direct routes).
	Hop1 float64
	// Hop2 is the DTN→provider leg (or the whole direct upload).
	Hop2 float64
	// Info is the provider's stored-object metadata.
	Info sdk.FileInfo
}

// DirectUpload times a plain API upload from the user machine — the
// paper's baseline.
func DirectUpload(p *simproc.Proc, client sdk.Client, name string, size float64, md5 string) (Report, error) {
	t0 := p.Now()
	info, err := client.Upload(p, name, size, md5)
	if err != nil {
		return Report{}, fmt.Errorf("core: direct upload: %w", err)
	}
	d := float64(p.Now() - t0)
	return Report{Route: DirectRoute, Total: d, Hop2: d, Info: info}, nil
}

// AgentPort is the TCP port of the DTN relay agent.
const AgentPort = 7373

// Agent is the DTN-side relay: it shares the rsync daemon's staging area
// and holds provider SDK clients that dial *from the DTN*, so the second
// hop rides the DTN's (often better) route to the provider.
type Agent struct {
	tn     *transport.Net
	host   string
	daemon *rsyncx.Daemon

	clients map[string]sdk.Client
	// relays tracks detached resumable relays by object name, so a
	// client retry attaches to the push already in flight instead of
	// starting a duplicate.
	relays map[string]*relayJob
	// relayChunk is the adaptive per-provider relay write size. It
	// persists across relays: when a provider is silently throttling
	// this DTN, the first relay to notice downshifts, and every
	// subsequent relay (including canary probes) starts small — so a
	// parked or aborted push strands seconds of work, not minutes.
	relayChunk map[string]float64
	// Relayed counts completed relay uploads, for tests.
	Relayed int
	// Trace, when set, receives agent-side events.
	Trace *tracelog.Log

	l        *transport.Listener
	conns    map[*transport.Conn]struct{}
	draining bool
	// DrainRejects counts requests refused while draining, for tests.
	DrainRejects int
}

// Drain puts the agent in administrative drain: new detour work —
// fresh relays, streams, probes — is refused with a typed "draining"
// error, while requests already in flight and checkpoint continuations
// carrying a provider session token run to completion. Staged files
// and partials stay on disk throughout.
func (a *Agent) Drain() { a.draining = true }

// Undrain returns the agent to service.
func (a *Agent) Undrain() { a.draining = false }

// Draining reports the administrative drain state.
func (a *Agent) Draining() bool { return a.draining }

// rejectDraining answers a refused request; the error substring
// "draining" is load-bearing — schedulers classify it as a route-level
// failure and fail the job over with its checkpoint.
func (a *Agent) rejectDraining(p *simproc.Proc, c *transport.Conn) {
	a.DrainRejects++
	a.Trace.Emit("agent.drain.reject", map[string]any{
		"dtn": a.host, "client": c.RemoteHost(),
	})
	_ = c.Send(p, relayResult{OK: false, Err: "dtn draining: " + a.host}, ctrlBytes)
}

// NewAgent returns an agent for the DTN host, sharing the rsync daemon's
// staging area.
func NewAgent(tn *transport.Net, host string, daemon *rsyncx.Daemon) *Agent {
	if tn == nil || daemon == nil {
		panic("core: nil transport or daemon")
	}
	return &Agent{tn: tn, host: host, daemon: daemon,
		clients:    make(map[string]sdk.Client),
		relays:     make(map[string]*relayJob),
		relayChunk: make(map[string]float64),
		conns:      make(map[*transport.Conn]struct{}),
	}
}

// Crash models the agent process dying: the listener unbinds and every
// active relay connection drops mid-flight. Provider upload sessions
// survive server-side (their tokens live in client checkpoints), and
// the shared staging area is the daemon's disk — so a restarted agent
// resumes where the crashed one left off. Call Start again to restart.
func (a *Agent) Crash() {
	if a.l != nil {
		a.l.Close()
		a.l = nil
	}
	for c := range a.conns {
		c.Close()
	}
	a.conns = make(map[*transport.Conn]struct{})
}

// RegisterProvider installs the SDK client the agent uses for a
// provider. The client must dial from the agent's host.
func (a *Agent) RegisterProvider(client sdk.Client) {
	if client.From() != a.host {
		panic(fmt.Sprintf("core: provider client dials from %q, agent lives on %q", client.From(), a.host))
	}
	a.clients[client.ProviderName()] = client
}

// Start binds the agent listener and serves until the listener closes.
func (a *Agent) Start() *transport.Listener {
	l := a.tn.MustListen(a.host, AgentPort)
	a.l = l
	r := a.tn.Runner()
	r.Go("detourd:"+a.host, func(p *simproc.Proc) {
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			a.conns[c] = struct{}{}
			r.Go("detourd-conn:"+c.RemoteHost(), func(hp *simproc.Proc) {
				defer delete(a.conns, c)
				a.serve(hp, c)
			})
		}
	})
	return l
}

// Agent wire protocol.

type relayUpload struct {
	Name     string
	Provider string
}

type streamBegin struct {
	Name     string
	Size     float64
	MD5      string
	Provider string
}

type streamChunk struct {
	N    float64
	Last bool
}

type relayResult struct {
	OK      bool
	Err     string
	Info    sdk.FileInfo
	Seconds float64 // DTN-side upload time

	// Resumable-relay checkpoint fields (relayResume/relayPoll replies
	// only). Done distinguishes a finished detached relay from one still
	// in flight — a poll of a live relay reports OK with Done false.
	Done        bool
	HasToken    bool
	Token       sdk.SessionToken // provider session at reply time
	StartOffset float64          // session offset when this relay began
	Written     float64          // session offset at reply time
}

// relayResume is the checkpoint-aware second hop: upload the staged
// file through a provider session, reattaching to Token when possible,
// and return the session token on failure so the caller can carry it —
// across retries and even across routes.
type relayResume struct {
	Name     string
	Provider string
	HasToken bool
	Token    sdk.SessionToken
	// Scope is the caller's flow scope; the agent adopts it while
	// relaying so the second hop's flows are attributable (and
	// abortable) as part of the caller's transfer.
	Scope string
	// AttemptID is the caller's idempotency key: the agent passes it to
	// the provider session it opens, so the relay's commit is safe to
	// replay after a control-plane crash.
	AttemptID string
}

// relayPoll watches a detached resumable relay: the reply is the
// relay's live relayResult (Done false while the push is in flight).
type relayPoll struct {
	Name string
}

// relayAbort asks the DTN to park a detached relay at its next chunk
// boundary. The staged file and the provider session survive, so a
// retry (any route) resumes instead of restarting.
type relayAbort struct {
	Name string
}

// relayPollInterval paces a client watching its detached relay — short
// enough that a stall watchdog's cooperative abort lands promptly AND
// that completion is noticed without idling the lane: a striped
// transfer claims its next chunk only after the poll sees Done, so the
// interval is a dead-time tax on every chunk a detour lane carries.
const relayPollInterval = 0.25

type probeReq struct {
	Provider string
	Bytes    float64
}

const ctrlBytes = 96

func (a *Agent) serve(p *simproc.Proc, c *transport.Conn) {
	defer c.Close()
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return
		}
		switch m := msg.Payload.(type) {
		case relayUpload:
			if a.draining {
				a.rejectDraining(p, c)
				continue
			}
			a.handleRelay(p, c, m)
		case relayResume:
			// A continuation carrying a provider session token is an
			// existing job finishing its work; drain only refuses new ones.
			if a.draining && !m.HasToken {
				a.rejectDraining(p, c)
				continue
			}
			a.handleRelayResume(p, c, m)
		case relayPoll:
			// Watching an in-flight relay is never new work.
			a.handleRelayPoll(p, c, m)
		case relayAbort:
			// Neither is giving one up.
			a.handleRelayAbort(p, c, m)
		case streamBegin:
			if a.draining {
				a.rejectDraining(p, c)
				continue
			}
			a.handleStream(p, c, m)
		case probeReq:
			if a.draining {
				a.rejectDraining(p, c)
				continue
			}
			a.handleProbe(p, c, m)
		case relayDownload:
			if a.draining {
				a.rejectDraining(p, c)
				continue
			}
			a.handleDownload(p, c, m)
		default:
			_ = c.Send(p, relayResult{OK: false, Err: "protocol error"}, ctrlBytes)
			return
		}
	}
}

// handleRelay is the store-and-forward second hop: upload an
// already-staged file to the provider.
func (a *Agent) handleRelay(p *simproc.Proc, c *transport.Conn, m relayUpload) {
	client, ok := a.clients[m.Provider]
	if !ok {
		_ = c.Send(p, relayResult{OK: false, Err: "unknown provider " + m.Provider}, ctrlBytes)
		return
	}
	st, ok := a.daemon.Staged(m.Name)
	if !ok {
		_ = c.Send(p, relayResult{OK: false, Err: "not staged: " + m.Name}, ctrlBytes)
		return
	}
	// An in-flight relay read pins its staged file against eviction.
	a.daemon.Pin(m.Name)
	defer a.daemon.Unpin(m.Name)
	t0 := p.Now()
	info, err := client.Upload(p, st.Name, st.Size, st.MD5)
	if err != nil {
		_ = c.Send(p, relayResult{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	a.Relayed++
	a.Trace.Emit("agent.relay.upload", map[string]any{
		"name": st.Name, "provider": m.Provider, "bytes": st.Size,
		"seconds": float64(p.Now() - t0), "client": c.RemoteHost(),
	})
	_ = c.Send(p, relayResult{OK: true, Info: info, Seconds: float64(p.Now() - t0)}, ctrlBytes)
}

// handleStream is the pipelined mode: chunks arrive on the connection
// and are written to a provider upload session as they land, so the
// user→DTN and DTN→provider hops overlap.
func (a *Agent) handleStream(p *simproc.Proc, c *transport.Conn, m streamBegin) {
	client, ok := a.clients[m.Provider]
	if !ok {
		_ = c.Send(p, relayResult{OK: false, Err: "unknown provider " + m.Provider}, ctrlBytes)
		return
	}
	sess, err := client.BeginUpload(p, m.Name, m.Size, m.MD5, "")
	if err != nil {
		_ = c.Send(p, relayResult{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	if err := c.Send(p, relayResult{OK: true}, ctrlBytes); err != nil {
		return
	}
	t0 := p.Now()
	var info sdk.FileInfo
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return
		}
		ch, ok := msg.Payload.(streamChunk)
		if !ok {
			_ = c.Send(p, relayResult{OK: false, Err: "expected chunk"}, ctrlBytes)
			return
		}
		info, err = sess.WriteChunk(p, ch.N, ch.Last)
		if err != nil {
			_ = c.Send(p, relayResult{OK: false, Err: err.Error()}, ctrlBytes)
			return
		}
		if ch.Last {
			break
		}
	}
	a.Relayed++
	_ = c.Send(p, relayResult{OK: true, Info: info, Seconds: float64(p.Now() - t0)}, ctrlBytes)
}

// handleProbe times a small upload from the DTN to the provider, the
// second-hop measurement the detour selector extrapolates from.
func (a *Agent) handleProbe(p *simproc.Proc, c *transport.Conn, m probeReq) {
	client, ok := a.clients[m.Provider]
	if !ok {
		_ = c.Send(p, relayResult{OK: false, Err: "unknown provider " + m.Provider}, ctrlBytes)
		return
	}
	if m.Bytes <= 0 {
		m.Bytes = 1 << 20
	}
	t0 := p.Now()
	name := fmt.Sprintf(".probe-%s-%d", c.RemoteHost(), int64(p.Now()*1e6))
	_, err := client.Upload(p, name, m.Bytes, "")
	if err != nil {
		_ = c.Send(p, relayResult{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	// Best-effort cleanup so probes do not accumulate provider-side.
	_ = client.Delete(p, name)
	_ = c.Send(p, relayResult{OK: true, Seconds: float64(p.Now() - t0)}, ctrlBytes)
}

// DetourClient executes detoured uploads from a user machine through one
// DTN.
type DetourClient struct {
	tn   *transport.Net
	from string
	dtn  string
	// Rsync is the first-hop client; exposed so tests can tune it.
	Rsync *rsyncx.Client
	// CleanStaging, when set (the default), deletes any staged copy
	// before transferring, as the paper's methodology prescribes.
	CleanStaging bool
	// Trace, when set, receives client-side detour events.
	Trace *tracelog.Log
}

// NewDetourClient returns a detour client from `from` via the DTN `dtn`.
func NewDetourClient(tn *transport.Net, from, dtn string) *DetourClient {
	return &DetourClient{
		tn:           tn,
		from:         from,
		dtn:          dtn,
		Rsync:        rsyncx.NewClient(tn, from, dtn),
		CleanStaging: true,
	}
}

// Route returns the detour's route label.
func (d *DetourClient) Route() Route { return ViaRoute(d.dtn) }

// Upload performs the paper's store-and-forward detour: rsync the file
// to the DTN, then command the agent to upload it to the provider. The
// report carries both hop times; Total = Hop1 + Hop2 (+ command RTTs).
func (d *DetourClient) Upload(p *simproc.Proc, provider, name string, size float64, md5 string) (Report, error) {
	t0 := p.Now()
	if d.CleanStaging {
		// Best-effort: deleting a non-staged file is fine.
		_ = d.Rsync.Delete(p, name)
	}
	h0 := p.Now()
	if err := d.Rsync.PushSized(p, name, size, md5); err != nil {
		return Report{}, fmt.Errorf("core: detour hop1: %w", err)
	}
	hop1 := float64(p.Now() - h0)

	c, err := d.tn.Dial(p, d.from, d.dtn, AgentPort, transport.DialOpts{})
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent dial: %w", err)
	}
	defer c.Close()
	msg, err := c.Exchange(p, relayUpload{Name: name, Provider: provider}, ctrlBytes)
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent: %w", err)
	}
	res, ok := msg.Payload.(relayResult)
	if !ok {
		return Report{}, fmt.Errorf("core: detour agent sent %T", msg.Payload)
	}
	if !res.OK {
		return Report{}, fmt.Errorf("core: detour hop2: %s", res.Err)
	}
	rep := Report{
		Route: d.Route(),
		Total: float64(p.Now() - t0),
		Hop1:  hop1,
		Hop2:  res.Seconds,
		Info:  res.Info,
	}
	d.Trace.Emit("detour.upload.done", map[string]any{
		"from": d.from, "via": d.dtn, "provider": provider, "name": name,
		"bytes": size, "total": rep.Total, "hop1": rep.Hop1, "hop2": rep.Hop2,
	})
	return rep, nil
}

// ProbeHop1 times a small rsync transfer to the DTN and returns its
// duration in seconds.
func (d *DetourClient) ProbeHop1(p *simproc.Proc, bytes float64) (float64, error) {
	if bytes <= 0 {
		bytes = 1 << 20
	}
	name := fmt.Sprintf(".probe-%s-%d", d.from, int64(float64(p.Now())*1e6))
	t0 := p.Now()
	if err := d.Rsync.PushSized(p, name, bytes, ""); err != nil {
		return 0, err
	}
	dur := float64(p.Now() - t0)
	_ = d.Rsync.Delete(p, name)
	return dur, nil
}

// ProbeHop2 asks the agent to time a small upload from the DTN to the
// provider and returns its duration in seconds.
func (d *DetourClient) ProbeHop2(p *simproc.Proc, provider string, bytes float64) (float64, error) {
	c, err := d.tn.Dial(p, d.from, d.dtn, AgentPort, transport.DialOpts{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	msg, err := c.Exchange(p, probeReq{Provider: provider, Bytes: bytes}, ctrlBytes)
	if err != nil {
		return 0, err
	}
	res, ok := msg.Payload.(relayResult)
	if !ok {
		return 0, fmt.Errorf("core: probe got %T", msg.Payload)
	}
	if !res.OK {
		return 0, fmt.Errorf("core: probe: %s", res.Err)
	}
	return res.Seconds, nil
}

// UploadPipelined performs the pipelined detour (the paper's future
// work): the file moves to the DTN in chunks over one stream and the
// agent forwards each chunk into a provider upload session while later
// chunks are still in flight.
func (d *DetourClient) UploadPipelined(p *simproc.Proc, provider, name string, size float64, md5 string, chunkBytes float64) (Report, error) {
	if size <= 0 {
		return Report{}, fmt.Errorf("core: pipelined upload needs positive size")
	}
	if chunkBytes <= 0 {
		chunkBytes = 4 << 20
	}
	t0 := p.Now()
	c, err := d.tn.Dial(p, d.from, d.dtn, AgentPort, transport.DialOpts{})
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent dial: %w", err)
	}
	defer c.Close()
	msg, err := c.Exchange(p, streamBegin{Name: name, Size: size, MD5: md5, Provider: provider}, ctrlBytes)
	if err != nil {
		return Report{}, fmt.Errorf("core: stream begin: %w", err)
	}
	if res, ok := msg.Payload.(relayResult); !ok || !res.OK {
		return Report{}, fmt.Errorf("core: stream begin rejected: %+v", msg.Payload)
	}
	for sent := 0.0; sent < size; {
		n := chunkBytes
		last := false
		if sent+n >= size {
			n = size - sent
			last = true
		}
		if err := c.Send(p, streamChunk{N: n, Last: last}, n); err != nil {
			return Report{}, fmt.Errorf("core: stream chunk: %w", err)
		}
		sent += n
	}
	msg, err = c.Recv(p)
	if err != nil {
		return Report{}, fmt.Errorf("core: stream result: %w", err)
	}
	res, ok := msg.Payload.(relayResult)
	if !ok {
		return Report{}, fmt.Errorf("core: stream result sent %T", msg.Payload)
	}
	if !res.OK {
		return Report{}, fmt.Errorf("core: pipelined relay: %s", res.Err)
	}
	total := float64(p.Now() - t0)
	d.Trace.Emit("detour.pipeline.done", map[string]any{
		"from": d.from, "via": d.dtn, "provider": provider, "name": name,
		"bytes": size, "total": total, "hop2": res.Seconds,
	})
	return Report{
		Route: d.Route(),
		Total: total,
		Hop1:  total, // hops overlap; both span the whole transfer
		Hop2:  res.Seconds,
		Info:  res.Info,
	}, nil
}

// Upload executes a transfer over the given route: direct via `direct`,
// or detoured via the matching client in `detours`. It is the uniform
// entry point the measurement harness drives.
func Upload(p *simproc.Proc, route Route, direct sdk.Client, detours map[string]*DetourClient,
	provider, name string, size float64, md5 string) (Report, error) {
	if route.Kind == Direct {
		return DirectUpload(p, direct, name, size, md5)
	}
	dc, ok := detours[route.Via]
	if !ok {
		return Report{}, fmt.Errorf("core: no detour client via %q", route.Via)
	}
	return dc.Upload(p, provider, name, size, md5)
}
