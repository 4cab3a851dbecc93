package core

import (
	"errors"
	"fmt"

	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// ErrIntegrity reports a completed resumable upload whose provider-side
// digest does not match the source file — the resumed session was stale
// or its staged bytes were corrupted. The checkpoint's session has been
// discarded, so a retry re-uploads through a fresh session instead of
// re-committing the bad bytes.
var ErrIntegrity = errors.New("core: provider digest mismatch on resumed upload")

// ErrStall reports a transfer the stall watchdog aborted: it was making
// no byte progress, or running far below the route's learned baseline,
// for longer than its adaptive budget. The transfer's checkpoint is
// intact — hop-1 bytes sit on the DTN's disk, the provider session
// token is recorded — so the scheduler re-routes and resumes rather
// than restarts. A stall is a property of the *path*, not the job: the
// scheduler treats it as route-down-lite (fail over, don't spend the
// job's retry cap).
var ErrStall = errors.New("core: transfer stalled below adaptive floor")

// ErrQuotaExhausted reports a provider refusing writes because the
// tenant's storage quota is spent (HTTP 507 / insufficient-quota). It
// is a property of the provider account, not of any route: failing
// over to another DTN cannot help, but reclaiming quota (abandoned
// upload-session cleanup) or spilling to an alternate provider can.
// Schedulers park the job with the provider's Retry-After hint when
// neither is possible.
var ErrQuotaExhausted = errors.New("core: provider storage quota exhausted")

// DefaultResumeChunk is the chunk size resumable transfers checkpoint
// at when the caller does not specify one.
const DefaultResumeChunk = 8 << 20

// Detached-relay adaptive chunking bounds: while a provider path is
// gray-slow (below slowRelayBps) each write aims at
// relayChunkTargetSecs of wire time; the size floats between
// minRelayChunk and DefaultResumeChunk (see runRelay).
const (
	minRelayChunk        = 1 << 20
	relayChunkTargetSecs = 5.0
	// slowRelayBps is the adaptation threshold: any healthy DTN-to-
	// provider hop runs well above this, so only a genuinely gray write
	// (a silently throttled peering, a dying disk) shrinks the chunk.
	slowRelayBps = 500e3
)

// Checkpoint carries a transfer's durable progress across attempts —
// and across routes: the hop-1 offset lives on a DTN's disk, the
// provider session lives server-side, so a job that fails over from a
// detour to direct (or to another detour) keeps whatever the provider
// already confirmed.
type Checkpoint struct {
	// Hop1Via names the DTN whose disk holds first-hop progress; the
	// offset itself is queried from the daemon (ground truth).
	Hop1Via string
	// Hop1High is the high-water mark of hop-1 bytes pushed, for
	// rewrite accounting.
	Hop1High float64

	// HasSession marks Session as a live provider upload session.
	HasSession bool
	Session    sdk.SessionToken
	// Hop2High is the high-water mark of provider-session bytes sent.
	Hop2High float64

	// BytesResumed counts bytes skipped thanks to checkpoints (work the
	// transfer did NOT redo); BytesRewritten counts bytes sent more than
	// once (work lost to interruptions).
	BytesResumed   float64
	BytesRewritten float64

	// AttemptID is the idempotency key of the attempt in flight. It is
	// passed to the provider session's BeginUpload or Resume, so the
	// session's commit carries it, and a commit replayed after a
	// control-plane crash returns the stored object instead of
	// materializing a duplicate.
	AttemptID string
	// ChunkRepairs counts staged chunks re-sent because manifest
	// verification caught silent corruption — chunk-granularity repair,
	// distinct from a whole-transfer integrity discard (ErrIntegrity).
	ChunkRepairs int

	// OnProgress, when non-nil, receives the advisory live byte
	// watermark of the attempt in flight — the feed a stall watchdog
	// keys on. It is not resume state: watermarks are best-effort (a
	// detour's second hop reports at each relay poll, hop 1 at each
	// acked chunk) and never affect accounting.
	OnProgress func(bytes float64) `json:"-"`

	// aborted is the cooperative stall-abort latch: a watchdog raises it
	// (RequestAbort) and the transfer's chunk and poll loops observe it
	// at safe points, returning ErrStall with the checkpoint intact.
	// Cooperation is the only abort that always works — a gray
	// transfer's slowness often lives in a peer's process (a throttled
	// provider, a dying staging disk), where the client has no in-flight
	// flow to kill, only a wait to give up on.
	aborted bool
}

// RequestAbort raises the cooperative abort latch. The transfer in
// flight returns ErrStall at its next safe point; its checkpoint stays
// valid for resume on another route.
func (ck *Checkpoint) RequestAbort() { ck.aborted = true }

// AbortRequested reports the abort latch.
func (ck *Checkpoint) AbortRequested() bool { return ck.aborted }

// ResetAbort lowers the latch so the next attempt starts clean.
func (ck *Checkpoint) ResetAbort() { ck.aborted = false }

// noteProgress reports an advisory live watermark to the watchdog.
func (ck *Checkpoint) noteProgress(bytes float64) {
	if ck.OnProgress != nil {
		ck.OnProgress(bytes)
	}
}

// observeHop1 charges accounting for a hop-1 attempt starting at offset.
func (ck *Checkpoint) observeHop1(offset float64) {
	if offset < ck.Hop1High {
		ck.BytesRewritten += ck.Hop1High - offset
	}
	ck.BytesResumed += offset
}

// abandonHop1 switches the checkpoint's first hop to via (empty for a
// direct route). Progress sitting on a different DTN's disk cannot be
// used from here, so it is charged as rewritten — the bytes must cross
// the first hop again if the transfer ever returns to a detour.
func (ck *Checkpoint) abandonHop1(via string) {
	if ck.Hop1Via == via {
		return
	}
	ck.BytesRewritten += ck.Hop1High
	ck.Hop1Via, ck.Hop1High = via, 0
}

// observeHop2 charges accounting for a provider-session attempt that
// began at start and reached written.
func (ck *Checkpoint) observeHop2(start, written float64) {
	if start < ck.Hop2High {
		ck.BytesRewritten += ck.Hop2High - start
	}
	ck.BytesResumed += start
	if written > ck.Hop2High {
		ck.Hop2High = written
	}
}

// NextObject readies the checkpoint to carry a different object over
// the same path — the per-path reuse a striped multipath transfer
// needs, where one path uploads many chunk objects back to back. The
// per-object marks (hop-1 high water, provider session, hop-2 high
// water) are cleared so the next object starts clean, while the DTN
// affinity (Hop1Via) and the cumulative resumed/rewritten accounting
// survive: they describe the path, not the object.
func (ck *Checkpoint) NextObject() {
	ck.Hop1High = 0
	ck.HasSession = false
	ck.Session = sdk.SessionToken{}
	ck.Hop2High = 0
	ck.aborted = false
}

// DiscardSession abandons the checkpoint's provider session: whatever
// the provider confirmed through it is worthless (stale digest, corrupt
// staging), so those bytes are charged as rewritten and the next
// attempt begins a fresh session.
func (ck *Checkpoint) DiscardSession() {
	ck.BytesRewritten += ck.Hop2High
	ck.HasSession = false
	ck.Session = sdk.SessionToken{}
	ck.Hop2High = 0
}

// verifyDigest is the end-to-end integrity gate at upload completion:
// the provider's recorded digest must match the source file's
// (rsyncx.Checksum-produced) digest. On mismatch the session is
// discarded so the caller's retry starts clean. Either digest being
// empty skips the check — not every caller threads checksums.
func (ck *Checkpoint) verifyDigest(source, provider string) error {
	if source == "" || provider == "" || source == provider {
		return nil
	}
	ck.DiscardSession()
	return fmt.Errorf("provider has %q, source is %q: %w", provider, source, ErrIntegrity)
}

// relayJob is one detached resumable relay's live state. The relay runs
// as its own DTN-side process — store-and-forward: once the bytes are
// staged, the push to the provider belongs to the DTN, and the client
// merely watches. Clients poll it over the control channel
// (handleRelayPoll); a client that gives up asks the relay to park at
// its next chunk boundary (handleRelayAbort), and a later attempt for
// the same name attaches to a live relay instead of double-pushing the
// staged file.
type relayJob struct {
	done     bool
	ok       bool
	abort    bool // park at the next chunk boundary (client gave up)
	err      string
	hasToken bool
	token    sdk.SessionToken
	start    float64 // session offset when this relay began
	written  float64 // session offset now
	info     sdk.FileInfo
	seconds  float64
}

func (rj *relayJob) result() relayResult {
	return relayResult{
		OK: rj.ok || !rj.done, Done: rj.done, Err: rj.err,
		Info: rj.info, Seconds: rj.seconds,
		HasToken: rj.hasToken, Token: rj.token,
		StartOffset: rj.start, Written: rj.written,
	}
}

// handleRelayResume starts (or attaches to) the checkpoint-aware
// store-and-forward second hop: the relay reattaches to the provider
// session in the request's token when possible and uploads the staged
// file chunk by chunk as a detached process, while the caller polls
// with relayPoll. The immediate ack carries OK=false only for requests
// that cannot start at all.
func (a *Agent) handleRelayResume(p *simproc.Proc, c *transport.Conn, m relayResume) {
	if rj, ok := a.relays[m.Name]; ok && !rj.done {
		// A relay for this name is already in flight (a previous client
		// stalled out and left; this is its retry, or a canary). Attach —
		// one staged file gets one push — and withdraw any pending park
		// request, since someone is watching again.
		rj.abort = false
		_ = c.Send(p, relayResult{OK: true}, ctrlBytes)
		return
	}
	rj := &relayJob{}
	a.relays[m.Name] = rj
	a.tn.Runner().Go("agent-relay:"+a.host+":"+m.Name, func(rp *simproc.Proc) {
		if m.Scope != "" {
			// Relay under the caller's flow scope: the second hop's flows
			// belong to the caller's transfer, and a multipath driver must
			// be able to abort them by scoped label without touching other
			// transfers relaying through this DTN.
			rp.SetScope(m.Scope)
		}
		a.runRelay(rp, m, rj)
	})
	_ = c.Send(p, relayResult{OK: true}, ctrlBytes)
}

// runRelay is the detached relay body; it mutates rj as chunks land so
// polls see live progress.
func (a *Agent) runRelay(p *simproc.Proc, m relayResume, rj *relayJob) {
	fail := func(msg string) {
		rj.err = msg
		rj.done = true
	}
	client, ok := a.clients[m.Provider]
	if !ok {
		fail("unknown provider " + m.Provider)
		return
	}
	st, ok := a.daemon.Staged(m.Name)
	if !ok {
		fail("not staged: " + m.Name)
		return
	}
	// Pin the staged file for the relay's lifetime: an in-flight relay
	// is one of the two live-use cases the eviction policy must never
	// touch (the other is an active push handler).
	a.daemon.Pin(m.Name)
	defer a.daemon.Unpin(m.Name)
	t0 := p.Now()
	sess, err := openSession(p, client, m.HasToken, m.Token, st.Name, st.Size, st.MD5, m.AttemptID)
	if err != nil {
		fail(err.Error())
		return
	}
	rj.start = sess.Written()
	sync := func() {
		rj.written = sess.Written()
		rj.token, rj.hasToken = sess.Token(), true
	}
	sync()
	// Adaptive chunk sizing, rate-based: aim every write at roughly
	// relayChunkTargetSecs on the wire, clamped to [minRelayChunk,
	// DefaultResumeChunk] and at most doubling per step. On a healthy
	// provider path writes finish in ~1 s and the size pins to the
	// ceiling; when the provider silently throttles this DTN a single
	// slow write collapses the size, and because the learned value is
	// per-provider agent state, every later relay starts small too —
	// abort/park latency stays bounded by one SMALL chunk for as long
	// as the slowness lasts, then the size climbs back.
	chunk, ok := a.relayChunk[m.Provider]
	if !ok || chunk <= 0 {
		chunk = float64(DefaultResumeChunk)
	}
	for sess.Written() < st.Size {
		if rj.abort {
			// The client stalled out and asked us to stop. Parking here —
			// not finishing — matters: whatever gray slowness made the
			// client give up is on OUR provider path, and grinding through
			// it would pin the DTN's relay slot for the whole file. The
			// session token in rj lets any retry resume at this offset.
			fail("relay parked at client request")
			return
		}
		n := min(chunk, st.Size-sess.Written())
		last := sess.Written()+n >= st.Size
		w0 := p.Now()
		fi, err := sess.WriteChunk(p, n, last)
		sync()
		if secs := float64(p.Now() - w0); secs > 0 {
			if n/secs < slowRelayBps {
				// Gray-slow write: retarget the next one at
				// relayChunkTargetSecs so a park request is honored within
				// one SMALL chunk, not one 8 MB grind.
				next := chunk * relayChunkTargetSecs / secs
				next = min(next, chunk*2)
				chunk = max(next, float64(minRelayChunk))
			} else if chunk < float64(DefaultResumeChunk) {
				// Healthy again: climb back, doubling per write.
				chunk = min(chunk*2, float64(DefaultResumeChunk))
			}
			a.relayChunk[m.Provider] = chunk
		}
		if err != nil {
			fail(err.Error())
			return
		}
		rj.info = fi
	}
	a.Relayed++
	rj.seconds = float64(p.Now() - t0)
	a.Trace.Emit("agent.relay.resume", map[string]any{
		"name": st.Name, "provider": m.Provider, "bytes": st.Size,
		"resumed_from": rj.start, "seconds": rj.seconds,
	})
	rj.ok = true
	rj.done = true
}

// handleRelayPoll answers a client watching its detached relay.
func (a *Agent) handleRelayPoll(p *simproc.Proc, c *transport.Conn, m relayPoll) {
	rj, ok := a.relays[m.Name]
	if !ok {
		_ = c.Send(p, relayResult{OK: false, Done: true, Err: "no relay for " + m.Name}, ctrlBytes)
		return
	}
	_ = c.Send(p, rj.result(), ctrlBytes)
}

// handleRelayAbort parks a detached relay at its next chunk boundary.
// Idempotent and tolerant of unknown names (the relay may already have
// finished and been superseded).
func (a *Agent) handleRelayAbort(p *simproc.Proc, c *transport.Conn, m relayAbort) {
	if rj, ok := a.relays[m.Name]; ok && !rj.done {
		rj.abort = true
	}
	_ = c.Send(p, relayResult{OK: true, Done: true}, ctrlBytes)
}

// openSession reattaches to the provider session in tok when hasToken
// is set and the client can resume it, and begins a fresh session
// otherwise — including when the resume fails (an expired session).
// attempt is the idempotency key the session's commit carries.
func openSession(p *simproc.Proc, client sdk.Client, hasToken bool, tok sdk.SessionToken, name string, size float64, md5, attempt string) (sdk.UploadSession, error) {
	if r, ok := client.(sdk.SessionResumer); ok && hasToken && tok.Provider == client.ProviderName() {
		if s, err := r.Resume(p, tok, attempt); err == nil {
			return s, nil
		}
	}
	return client.BeginUpload(p, name, size, md5, attempt)
}

// DirectUploadResumable is DirectUpload with checkpointed resume: it
// uploads through a provider session, reattaches to the checkpoint's
// session when one is live, and records the session token in the
// checkpoint after every chunk so an interruption loses at most one
// chunk. Empty files have no session and fall back to DirectUpload.
func DirectUploadResumable(p *simproc.Proc, client sdk.Client, name string, size float64, md5 string, ck *Checkpoint) (Report, error) {
	if size <= 0 {
		return DirectUpload(p, client, name, size, md5)
	}
	t0 := p.Now()
	ck.abandonHop1("")
	sess, err := openSession(p, client, ck.HasSession, ck.Session, name, size, md5, ck.AttemptID)
	if err != nil {
		return Report{}, fmt.Errorf("core: direct begin: %w", err)
	}
	start := sess.Written()
	checkpoint := func() {
		ck.Session, ck.HasSession = sess.Token(), true
	}
	checkpoint()
	var info sdk.FileInfo
	for sess.Written() < size {
		if ck.AbortRequested() {
			// Cooperative stall abort at the chunk boundary: the session
			// token is checkpointed, so another route picks up from here.
			checkpoint()
			ck.observeHop2(start, sess.Written())
			return Report{}, fmt.Errorf("core: direct upload %q at %.0f: %w", name, sess.Written(), ErrStall)
		}
		n := min(float64(DefaultResumeChunk), size-sess.Written())
		last := sess.Written()+n >= size
		fi, err := sess.WriteChunk(p, n, last)
		if err != nil {
			checkpoint()
			ck.observeHop2(start, sess.Written())
			return Report{}, fmt.Errorf("core: direct upload at %.0f: %w", sess.Written(), err)
		}
		checkpoint()
		ck.noteProgress(sess.Written())
		info = fi
	}
	ck.observeHop2(start, sess.Written())
	if err := ck.verifyDigest(md5, info.MD5); err != nil {
		return Report{}, fmt.Errorf("core: direct upload %q: %w", name, err)
	}
	ck.HasSession = false // consumed: the upload committed
	d := float64(p.Now() - t0)
	return Report{Route: DirectRoute, Total: d, Hop2: d, Info: info}, nil
}

// UploadResumable is the checkpoint-aware store-and-forward detour. The
// first hop resumes from the DTN daemon's confirmed partial offset (its
// disk is ground truth) and skips entirely when an identical copy is
// already staged; the second hop relays through a resumable provider
// session whose token rides in the checkpoint. The checkpoint is
// updated on both success and failure, so the next attempt — on this
// route or another — continues rather than restarts.
func (d *DetourClient) UploadResumable(p *simproc.Proc, provider, name string, size float64, md5 string, ck *Checkpoint) (Report, error) {
	t0 := p.Now()

	// Hop 1: client -> DTN over resumable rsync.
	h0 := p.Now()
	st, err := d.Rsync.Stat(p, name)
	if err != nil {
		return Report{}, fmt.Errorf("core: detour hop1 stat: %w", err)
	}
	switch {
	case st.Staged && st.Size == size && st.MD5 == md5:
		// An identical copy already landed (a previous attempt finished
		// hop1 before dying in hop2): skip the hop.
		if ck.Hop1Via == d.dtn {
			ck.observeHop1(size)
		} else {
			ck.abandonHop1(d.dtn)
		}
		ck.Hop1High = size
		// The copy passed the size+digest gate, but its bytes may have
		// rotted on the DTN's disk while nobody was looking (we may be a
		// crash-replayed attempt hours later). Verify the chunk manifest
		// and repair only the damaged chunks — re-sending one 8 MB chunk
		// instead of discarding the whole staged file is the point of
		// chunk-level integrity.
		if sums, merr := d.Rsync.Manifest(p, name); merr == nil {
			for _, idx := range rsyncx.VerifyManifest(sums, md5) {
				span := rsyncx.ChunkSpan(size, idx)
				if rerr := d.Rsync.RepairChunk(p, name, idx, span); rerr != nil {
					return Report{}, fmt.Errorf("core: detour chunk repair %q[%d]: %w", name, idx, rerr)
				}
				ck.ChunkRepairs++
				ck.BytesRewritten += span
			}
		}
		ck.noteProgress(size)
	default:
		offset := st.Partial
		ck.abandonHop1(d.dtn)
		ck.observeHop1(offset)
		if ck.OnProgress != nil {
			// Live hop-1 feed for the stall watchdog: the chunked push
			// reports each acked chunk as it lands on the DTN's disk.
			d.Rsync.Progress = func(sent float64) { ck.noteProgress(offset + sent) }
			defer func() { d.Rsync.Progress = nil }()
		}
		// Cooperative stall abort between chunks: the daemon's per-chunk
		// acks are the only place a push blocked on a dying staging disk
		// can be given up on.
		d.Rsync.Abort = ck.AbortRequested
		defer func() { d.Rsync.Abort = nil }()
		sent, err := d.Rsync.PushSizedResumable(p, name, size, offset, DefaultResumeChunk, md5)
		if high := offset + sent; high > ck.Hop1High {
			ck.Hop1High = high
		}
		if err != nil {
			if errors.Is(err, rsyncx.ErrAborted) {
				return Report{}, fmt.Errorf("core: detour hop1 %q at %.0f: %w", name, ck.Hop1High, ErrStall)
			}
			return Report{}, fmt.Errorf("core: detour hop1: %w", err)
		}
	}
	hop1 := float64(p.Now() - h0)

	// Hop 2: DTN -> provider through a detached resumable relay the
	// client polls. Watching instead of blocking buys two things: the
	// watchdog gets a live hop-2 watermark every poll, and a stalled
	// client can give up (cooperative abort), parking the relay at its
	// next chunk boundary with the staged file and provider session
	// intact for whichever route retries.
	c, err := d.tn.Dial(p, d.from, d.dtn, AgentPort, transport.DialOpts{})
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent dial: %w", err)
	}
	defer hangUp(c)
	req := relayResume{Name: name, Provider: provider, Scope: p.Scope(), AttemptID: ck.AttemptID}
	if ck.HasSession && ck.Session.Provider == provider {
		req.HasToken, req.Token = true, ck.Session
	}
	msg, err := c.Exchange(p, req, ctrlBytes)
	if err != nil {
		return Report{}, fmt.Errorf("core: detour agent: %w", err)
	}
	res, ok := msg.Payload.(relayResult)
	if !ok {
		return Report{}, fmt.Errorf("core: detour agent sent %T", msg.Payload)
	}
	if !res.OK {
		// Refused outright (draining, protocol error) — nothing started.
		return Report{}, fmt.Errorf("core: detour hop2: %s", res.Err)
	}
	for !res.Done {
		if ck.AbortRequested() {
			// Ask the DTN to park the relay at its next chunk boundary
			// (best effort — a dead control channel is fine), then bail.
			// The staged file and the provider session both survive: the
			// checkpoint keeps the token, so the next attempt — any route —
			// resumes from whatever landed.
			_, _ = c.Exchange(p, relayAbort{Name: name}, ctrlBytes)
			if res.HasToken {
				ck.observeHop2(res.StartOffset, res.Written)
			}
			return Report{}, fmt.Errorf("core: detour hop2 %q at %.0f: %w", name, ck.Hop2High, ErrStall)
		}
		p.Sleep(relayPollInterval)
		msg, err := c.Exchange(p, relayPoll{Name: name}, ctrlBytes)
		if err != nil {
			if res.HasToken {
				ck.observeHop2(res.StartOffset, res.Written)
			}
			return Report{}, fmt.Errorf("core: detour agent: %w", err)
		}
		if res, ok = msg.Payload.(relayResult); !ok {
			return Report{}, fmt.Errorf("core: detour agent sent %T", msg.Payload)
		}
		if res.HasToken {
			// Token and watermark only; Hop2High accounting is settled
			// once, by observeHop2, when this attempt ends.
			ck.Session, ck.HasSession = res.Token, true
			ck.noteProgress(size + res.Written)
		}
	}
	if res.HasToken {
		ck.Session, ck.HasSession = res.Token, true
		ck.observeHop2(res.StartOffset, res.Written)
		ck.noteProgress(size + res.Written)
	}
	if !res.OK {
		return Report{}, fmt.Errorf("core: detour hop2: %s", res.Err)
	}
	if err := ck.verifyDigest(md5, res.Info.MD5); err != nil {
		return Report{}, fmt.Errorf("core: detour upload %q: %w", name, err)
	}
	ck.HasSession = false // consumed: the upload committed
	rep := Report{
		Route: d.Route(),
		Total: float64(p.Now() - t0),
		Hop1:  hop1,
		Hop2:  res.Seconds,
		Info:  res.Info,
	}
	d.Trace.Emit("detour.upload.resumed", map[string]any{
		"from": d.from, "via": d.dtn, "provider": provider, "name": name,
		"bytes": size, "total": rep.Total, "hop1": rep.Hop1, "hop2": rep.Hop2,
		"rewritten": ck.BytesRewritten, "resumed": ck.BytesResumed,
	})
	return rep, nil
}
