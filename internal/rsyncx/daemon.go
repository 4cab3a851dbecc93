package rsyncx

import (
	"errors"
	"fmt"
	"math"

	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// Port is the rsync daemon port.
const Port = 873

// Staged is a file held in a daemon's staging area (the DTN's disk).
type Staged struct {
	Name string
	Size float64
	MD5  string
}

// Daemon is the DTN-side rsync server: it receives pushes and stages
// them for the second detour hop.
type Daemon struct {
	tn   *transport.Net
	host string
	// DiskBps, when positive, throttles the staging disk's write path to
	// this many bytes/second — the gray-failure injector's dying-disk
	// knob. Pushes still succeed (no errors, ever); they just crawl.
	DiskBps float64
	// TornWrites re-enables the legacy in-place partial write path: a
	// chunk's bytes count toward the partial before the disk write
	// completes, so a crash mid-write leaves a torn tail that passes
	// length checks (the manifest scrub is what catches it). The default
	// path is two-phase — bytes land in a temp area and promote
	// atomically — so a crash can never tear a partial.
	TornWrites bool
	// Capacity bounds the staging disk in bytes; 0 (the default) keeps
	// the legacy unbounded disk. With a bound set, pushes and stagings
	// are admitted against headroom and refused with ErrNoSpace.
	Capacity float64
	// EvictStale arms LRU eviction of stale unpinned state when an
	// admission would otherwise fail — the mitigation half of the
	// storage-pressure model; off, a full disk simply refuses writes.
	EvictStale bool
	// Evictions / EvictedBytes / OrphansSwept are the reclamation
	// counters surfaced through CapacityStats.
	Evictions    int
	EvictedBytes float64
	OrphansSwept int
	staging      map[string]*Staged
	// partials holds in-progress chunked pushes keyed by name. Like the
	// staging area this models the DTN's disk: a daemon crash loses
	// connections but not partials, which is what makes resume work.
	partials map[string]*partial
	// Pushes counts completed receive operations, for tests.
	Pushes int

	// rot marks chunks the disk has silently corrupted (bit rot, torn
	// in-place writes), keyed by name then manifest chunk index. Like
	// staging and partials it models the disk, so it survives Crash.
	rot map[string]map[int]bool
	// inflight tracks a chunk write in progress per name (bytes being
	// committed to disk right now); Crash consults it to decide what a
	// dying process leaves behind.
	inflight map[string]float64
	// epoch increments on Crash so connection handlers that survive the
	// (simulated) process death stop committing state afterwards.
	epoch int

	// Finite-disk bookkeeping (see capacity.go). reserved holds
	// admitted-but-unwritten push bytes per name; pins protect names
	// in live use from eviction; orphans are leaked *.tmp files a
	// process death left behind; touched/seq is the LRU clock.
	reserved map[string]float64
	pins     map[string]int
	orphans  map[string]float64
	touched  map[string]int
	seq      int

	l     *transport.Listener
	conns map[*transport.Conn]struct{}
}

// partial is the on-disk state of an interrupted chunked push.
type partial struct {
	size     float64 // declared final size
	received float64 // bytes confirmed on disk
	md5      string
}

// NewDaemon returns a daemon for the given DTN host.
func NewDaemon(tn *transport.Net, host string) *Daemon {
	if tn == nil {
		panic("rsyncx: nil transport")
	}
	return &Daemon{tn: tn, host: host,
		staging:  make(map[string]*Staged),
		partials: make(map[string]*partial),
		inflight: make(map[string]float64),
		conns:    make(map[*transport.Conn]struct{}),
	}
}

// Crash models the daemon process dying: the listener unbinds and every
// active connection drops, but the staging area and partials — the
// DTN's disk — survive for the restarted daemon. Call Start again to
// model the restart.
func (d *Daemon) Crash() {
	d.epoch++
	if d.l != nil {
		d.l.Close()
		d.l = nil
	}
	for c := range d.conns {
		c.Close()
	}
	d.conns = make(map[*transport.Conn]struct{})
	// What a chunk write in progress leaves behind depends on the write
	// path. Two-phase (default): the temp bytes vanish, the partial is
	// exactly its last committed offset. Legacy in-place (TornWrites):
	// roughly half the chunk hit the disk before the process died, the
	// length check can't tell, and only the chunk's rot mark records
	// that the tail is garbage.
	for name, n := range d.inflight {
		if pt, ok := d.partials[name]; ok && d.TornWrites && n > 0 {
			torn := n / 2
			idx := int(pt.received / ManifestChunk)
			pt.received += torn
			d.markRot(name, idx)
			continue
		}
		// Two-phase path: the chunk's temp bytes never promoted, but
		// they are still sitting on the disk as an orphaned *.tmp file
		// until the restarted daemon's sweep (or an eviction) reclaims
		// them — the atomic-rename leak the restart sweep exists for.
		d.noteOrphan(name, n)
	}
	d.inflight = make(map[string]float64)
	// Reservations are process memory, not disk: they die with the
	// process. Handler goroutines that outlive the crash release with
	// an epoch guard, so this cannot double-free.
	d.reserved = nil
	d.pins = nil
}

// PartialOffset returns the confirmed bytes of an in-progress chunked
// push (zero when none) — exposed for tests and diagnostics. The
// partial is scrubbed against its chunk sums first, so torn or rotted
// tails are never reported as confirmed.
func (d *Daemon) PartialOffset(name string) float64 {
	if _, ok := d.partials[name]; ok {
		return d.scrubPartial(name)
	}
	return 0
}

// Staged returns a staged file by name.
func (d *Daemon) Staged(name string) (*Staged, bool) {
	s, ok := d.staging[name]
	return s, ok
}

// Stage places a file into the staging area directly — the relay agent
// uses it to land provider downloads next to rsync-pushed uploads. On
// a bounded disk it is admitted like any other write; a refused Stage
// panics, so capacity-aware callers should use StageChecked.
func (d *Daemon) Stage(st *Staged) {
	if err := d.StageChecked(st); err != nil {
		panic("rsyncx: " + err.Error())
	}
}

// StageChecked is Stage with the disk-full case surfaced as a typed
// ErrNoSpace instead of a panic.
func (d *Daemon) StageChecked(st *Staged) error {
	if st == nil || st.Name == "" {
		panic("rsyncx: staging nil or unnamed file")
	}
	prev := 0.0
	if base, ok := d.staging[st.Name]; ok {
		prev = base.Size
	}
	if err := d.admit(st.Name, st.Size-prev); err != nil {
		return err
	}
	d.unreserve(st.Name, st.Size-prev)
	d.staging[st.Name] = st
	d.touch(st.Name)
	return nil
}

// Remove deletes a staged file, reporting whether it existed. The paper
// deletes staged files before each benchmarked run.
func (d *Daemon) Remove(name string) bool {
	if _, ok := d.staging[name]; !ok {
		return false
	}
	delete(d.staging, name)
	return true
}

// Start binds the daemon listener and serves until the listener closes.
// A restarted daemon first sweeps any *.tmp files the dead process
// orphaned between a temp write and its atomic promote.
func (d *Daemon) Start() *transport.Listener {
	d.sweepOrphans()
	l := d.tn.MustListen(d.host, Port)
	d.l = l
	r := d.tn.Runner()
	r.Go("rsyncd:"+d.host, func(p *simproc.Proc) {
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			d.conns[c] = struct{}{}
			r.Go("rsyncd-conn:"+c.RemoteHost(), func(hp *simproc.Proc) {
				defer delete(d.conns, c)
				d.serve(hp, c)
				c.Release() // serve closed it
			})
		}
	})
	return l
}

// Wire message types. Sizes are charged explicitly per message.

type pushReq struct {
	Name string
	Size float64
}

// sigResp is rsync's basis-signature reply. The paper deletes the
// staged copy before each run, so there is never a basis and the reply
// is empty; it still costs its control message on the wire.
type sigResp struct{}

// deltaMsg carries a sized push's payload: with no basis, the delta is
// the whole file.
type deltaMsg struct {
	MD5 string
}

type deleteReq struct {
	Name string
}

type statReq struct {
	Name string
}

type statResp struct {
	Staged  bool    // a complete copy is staged
	Size    float64 // size of the staged copy
	MD5     string
	Partial float64 // confirmed bytes of an in-progress chunked push
}

// chunkedPushReq opens a resumable sized push: the payload follows as a
// pushChunk stream, and Offset picks up where a previous push died.
type chunkedPushReq struct {
	Name   string
	Size   float64
	Offset float64 // must match the daemon's partial offset
	MD5    string
}

type pushChunk struct {
	Bytes float64
	Last  bool
}

type fetchReq struct {
	Name string
}

type fetchResp struct {
	OK   bool
	Err  string
	Size float64
	MD5  string
}

type ack struct {
	OK  bool
	Err string
	MD5 string
}

const ctrlBytes = 96 // rough wire size of control messages

func (d *Daemon) serve(p *simproc.Proc, c *transport.Conn) {
	defer c.Close()
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return
		}
		switch m := msg.Payload.(type) {
		case pushReq:
			d.handlePush(p, c, m)
		case chunkedPushReq:
			d.handleChunkedPush(p, c, m)
		case statReq:
			resp := statResp{Partial: d.PartialOffset(m.Name)}
			if st, ok := d.staging[m.Name]; ok {
				resp.Staged, resp.Size, resp.MD5 = true, st.Size, st.MD5
			}
			_ = c.Send(p, resp, ctrlBytes)
		case manifestReq:
			sums, ok := d.manifest(m.Name)
			if !ok {
				_ = c.Send(p, manifestResp{OK: false, Err: "not staged: " + m.Name}, ctrlBytes)
				continue
			}
			st := d.staging[m.Name]
			_ = c.Send(p, manifestResp{OK: true, Size: st.Size, MD5: st.MD5, Sums: sums},
				float64(ctrlBytes+33*len(sums)))
		case repairChunkReq:
			if err := d.repairChunk(p, m.Name, m.Index); err != nil {
				_ = c.Send(p, ack{OK: false, Err: err.Error()}, ctrlBytes)
				continue
			}
			_ = c.Send(p, ack{OK: true}, ctrlBytes)
		case deleteReq:
			ok := d.Remove(m.Name)
			_ = c.Send(p, ack{OK: ok}, ctrlBytes)
		case fetchReq:
			st, ok := d.staging[m.Name]
			if !ok {
				_ = c.Send(p, fetchResp{OK: false, Err: "not staged: " + m.Name}, ctrlBytes)
				continue
			}
			resp := fetchResp{OK: true, Size: st.Size, MD5: st.MD5}
			_ = c.Send(p, resp, st.Size+ctrlBytes)
		default:
			_ = c.Send(p, ack{OK: false, Err: "protocol error"}, ctrlBytes)
			return
		}
	}
}

func (d *Daemon) handlePush(p *simproc.Proc, c *transport.Conn, req pushReq) {
	// 1. Answer with the (empty) basis signature.
	if err := c.Send(p, sigResp{}, ctrlBytes); err != nil {
		return
	}

	// 2. Receive the payload and stage the result.
	msg, err := c.Recv(p)
	if err != nil {
		return
	}
	dm, ok := msg.Payload.(deltaMsg)
	if !ok {
		_ = c.Send(p, ack{OK: false, Err: "expected delta"}, ctrlBytes)
		return
	}
	// Admission: the push replaces any staged copy of the same name,
	// so only the growth must fit. The reservation covers the write
	// and is consumed when the staged entry lands.
	prev := 0.0
	if base, ok := d.staging[req.Name]; ok {
		prev = base.Size
	}
	if err := d.admit(req.Name, req.Size-prev); err != nil {
		_ = c.Send(p, ack{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	epoch := d.epoch
	defer func() {
		if d.epoch == epoch {
			d.unreserve(req.Name, req.Size-prev)
		}
	}()
	if d.DiskBps > 0 && req.Size > 0 {
		p.Sleep(req.Size / d.DiskBps)
	}
	st := &Staged{Name: req.Name, Size: req.Size, MD5: dm.MD5}
	d.staging[req.Name] = st
	d.touch(req.Name)
	d.Pushes++
	_ = c.Send(p, ack{OK: true, MD5: st.MD5}, ctrlBytes)
}

// handleChunkedPush receives a resumable sized push. Confirmed chunks
// accumulate in the partials map (the DTN's disk); if the connection
// dies mid-stream the partial stays for the next resume, and the final
// chunk promotes it to a fully staged file.
func (d *Daemon) handleChunkedPush(p *simproc.Proc, c *transport.Conn, req chunkedPushReq) {
	pt := d.partials[req.Name]
	cur := 0.0
	if pt != nil && pt.size == req.Size {
		cur = d.scrubPartial(req.Name)
	}
	if req.Offset != cur {
		_ = c.Send(p, ack{OK: false, Err: fmt.Sprintf("bad resume offset %v, have %v", req.Offset, cur)}, ctrlBytes)
		return
	}
	// Admission: reserve headroom for the bytes still to come before
	// accepting the stream, so two concurrent pushes cannot both be
	// admitted into the same free space. The reservation is consumed
	// chunk by chunk as bytes commit; whatever remains when the
	// handler exits (connection death, short push) is released.
	if err := d.admit(req.Name, req.Size-cur); err != nil {
		_ = c.Send(p, ack{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	if pt == nil || pt.size != req.Size {
		pt = &partial{size: req.Size, md5: req.MD5}
		d.partials[req.Name] = pt
		d.touch(req.Name)
	}
	epoch := d.epoch
	// Pin for the handler's lifetime: a partial with an active push
	// session is never evicted out from under its own stream.
	d.Pin(req.Name)
	defer func() {
		if d.epoch != epoch {
			return // crash dropped the pin and reservation tables
		}
		d.Unpin(req.Name)
		d.unreserve(req.Name, req.Size) // drop any unconsumed remainder
	}()
	// Go-ahead: the offset was accepted, stream away.
	if err := c.Send(p, ack{OK: true}, ctrlBytes); err != nil {
		return
	}
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return // connection died; the partial stays for resume
		}
		ch, ok := msg.Payload.(pushChunk)
		if !ok {
			_ = c.Send(p, ack{OK: false, Err: "expected chunk"}, ctrlBytes)
			return
		}
		// Two-phase chunk commit: the bytes land in a temp area first
		// (inflight), and only a completed write advances the partial.
		// A Crash mid-write discards the temp bytes — unless TornWrites
		// re-enables the legacy in-place path, where Crash leaves half
		// the chunk behind with only a rot mark to show for it.
		d.inflight[req.Name] = ch.Bytes
		if d.DiskBps > 0 && ch.Bytes > 0 {
			// A degraded disk commits the chunk slowly; the client's ack
			// (and the next chunk's processing) waits on the write.
			p.Sleep(ch.Bytes / d.DiskBps)
		}
		if d.epoch != epoch {
			return // the daemon process died under us; commit nothing
		}
		delete(d.inflight, req.Name)
		pt.received += ch.Bytes
		d.consumeReservation(req.Name, ch.Bytes)
		d.touch(req.Name)
		if !ch.Last {
			// Per-chunk ack: real backpressure. The client sends the next
			// chunk only after this one is committed to disk, so a dying
			// disk's slowness is visible (and escapable) client-side
			// instead of hiding behind a deep untracked inbox.
			if err := c.Send(p, ack{OK: true}, ctrlBytes); err != nil {
				return
			}
			continue
		}
		if math.Abs(pt.received-req.Size) > 1e-6 {
			_ = c.Send(p, ack{OK: false, Err: fmt.Sprintf("short push: %v of %v", pt.received, req.Size)}, ctrlBytes)
			return
		}
		delete(d.partials, req.Name)
		d.staging[req.Name] = &Staged{Name: req.Name, Size: req.Size, MD5: req.MD5}
		d.touch(req.Name)
		d.Pushes++
		_ = c.Send(p, ack{OK: true, MD5: req.MD5}, ctrlBytes)
		return
	}
}

// Client pushes files from a host to a daemon.
type Client struct {
	tn   *transport.Net
	from string
	dtn  string
	// Progress, when non-nil, receives the cumulative payload bytes the
	// daemon has acked during a chunked push — the live feed a stall
	// watchdog keys on. Advisory only; wire accounting is the return
	// value of PushSizedResumable.
	Progress func(sent float64)
	// Abort, when non-nil, is polled between chunks of a chunked push; a
	// true return abandons the push with ErrAborted. The daemon's
	// confirmed partial survives for the next resume.
	Abort func() bool
}

// ErrAborted reports a chunked push abandoned because the client's
// Abort hook fired — a cooperative stall abort, not a failure of the
// daemon or the path.
var ErrAborted = errors.New("rsyncx: push aborted by caller")

// NewClient returns an rsync client from `from` to the daemon at `dtn`.
func NewClient(tn *transport.Net, from, dtn string) *Client {
	if tn == nil {
		panic("rsyncx: nil transport")
	}
	return &Client{tn: tn, from: from, dtn: dtn}
}

// dial opens a connection to the daemon; the caller hangs it up.
func (cl *Client) dial(p *simproc.Proc) (*transport.Conn, error) {
	return cl.tn.Dial(p, cl.from, cl.dtn, Port, transport.DialOpts{})
}

// hangUp closes a connection the calling process alone used and hands
// it back to the transport.
func hangUp(c *transport.Conn) {
	c.Close()
	c.Release()
}

// PushSized transfers a file of the given size without materializing its
// bytes: the paper's staged files are random (incompressible, no basis),
// so the wire cost is simply the size plus protocol overhead. md5
// optionally carries an end-to-end digest for the relay to forward.
func (cl *Client) PushSized(p *simproc.Proc, name string, size float64, md5 string) error {
	// The size is wire time: NaN or +Inf would never finish sending.
	if !(size >= 0) || math.IsInf(size, 1) {
		return fmt.Errorf("rsyncx: size %v must be non-negative and finite", size)
	}
	c, err := cl.dial(p)
	if err != nil {
		return err
	}
	defer hangUp(c)
	if err := c.Send(p, pushReq{Name: name, Size: size}, ctrlBytes); err != nil {
		return err
	}
	if _, err := c.Recv(p); err != nil { // signature (always empty here)
		return err
	}
	if err := c.Send(p, deltaMsg{MD5: md5}, size+ctrlBytes); err != nil {
		return err
	}
	return recvAck(p, c)
}

// DefaultPushChunk is the chunk size of resumable sized pushes: the
// granularity at which progress is checkpointed on the daemon's disk.
const DefaultPushChunk = 8 << 20

// StatInfo reports the daemon-side state of a name: any fully staged
// copy, plus the confirmed offset of an in-progress chunked push.
type StatInfo struct {
	Staged  bool
	Size    float64
	MD5     string
	Partial float64
}

// Stat queries the daemon for staged/partial state of name — the resume
// handshake: the daemon's disk is ground truth for how many bytes an
// interrupted push actually landed.
func (cl *Client) Stat(p *simproc.Proc, name string) (StatInfo, error) {
	c, err := cl.dial(p)
	if err != nil {
		return StatInfo{}, err
	}
	defer hangUp(c)
	if err := c.Send(p, statReq{Name: name}, ctrlBytes); err != nil {
		return StatInfo{}, err
	}
	msg, err := c.Recv(p)
	if err != nil {
		return StatInfo{}, err
	}
	sr, ok := msg.Payload.(statResp)
	if !ok {
		return StatInfo{}, fmt.Errorf("rsyncx: expected stat response, got %T", msg.Payload)
	}
	return StatInfo{Staged: sr.Staged, Size: sr.Size, MD5: sr.MD5, Partial: sr.Partial}, nil
}

// PushSizedResumable transfers size bytes under name in chunks of
// chunkBytes (DefaultPushChunk if <= 0), starting at offset — which
// must be the daemon's confirmed partial offset, normally learned from
// Stat. It returns the payload bytes put on the wire by this call, so
// callers can account rewritten vs. resumed bytes; on error, re-Stat to
// learn where the daemon's partial actually stands.
func (cl *Client) PushSizedResumable(p *simproc.Proc, name string, size, offset, chunkBytes float64, md5 string) (sent float64, err error) {
	if !(size >= 0) || math.IsInf(size, 1) || !(offset >= 0) || offset > size {
		return 0, fmt.Errorf("rsyncx: bad size/offset %v/%v", size, offset)
	}
	if chunkBytes <= 0 {
		chunkBytes = DefaultPushChunk
	}
	c, err := cl.dial(p)
	if err != nil {
		return 0, err
	}
	defer hangUp(c)
	if err := c.Send(p, chunkedPushReq{Name: name, Size: size, Offset: offset, MD5: md5}, ctrlBytes); err != nil {
		return 0, err
	}
	if err := recvAck(p, c); err != nil { // go-ahead: offset accepted
		return 0, err
	}
	pos := offset
	for {
		if cl.Abort != nil && cl.Abort() {
			return sent, ErrAborted
		}
		n := chunkBytes
		last := false
		if pos+n >= size {
			n = size - pos
			last = true
		}
		if err := c.Send(p, pushChunk{Bytes: n, Last: last}, n+ctrlBytes); err != nil {
			return sent, err
		}
		// Every chunk is acked after the daemon commits it to disk —
		// backpressure, and the safe point the Abort hook is checked at.
		if err := recvAck(p, c); err != nil {
			return sent, err
		}
		sent += n
		pos += n
		if cl.Progress != nil {
			cl.Progress(sent)
		}
		if last {
			return sent, nil
		}
	}
}

// Fetch pulls a staged file from the daemon (the reverse direction,
// used by detoured downloads: provider → DTN → client). It returns the
// staged metadata after the bytes have crossed the wire.
func (cl *Client) Fetch(p *simproc.Proc, name string) (*Staged, error) {
	c, err := cl.dial(p)
	if err != nil {
		return nil, err
	}
	defer hangUp(c)
	if err := c.Send(p, fetchReq{Name: name}, ctrlBytes); err != nil {
		return nil, err
	}
	msg, err := c.Recv(p)
	if err != nil {
		return nil, err
	}
	fr, ok := msg.Payload.(fetchResp)
	if !ok {
		return nil, fmt.Errorf("rsyncx: expected fetch response, got %T", msg.Payload)
	}
	if !fr.OK {
		return nil, fmt.Errorf("rsyncx: fetch: %s", fr.Err)
	}
	return &Staged{Name: name, Size: fr.Size, MD5: fr.MD5}, nil
}

// Delete removes a staged file on the daemon.
func (cl *Client) Delete(p *simproc.Proc, name string) error {
	c, err := cl.dial(p)
	if err != nil {
		return err
	}
	defer hangUp(c)
	if err := c.Send(p, deleteReq{Name: name}, ctrlBytes); err != nil {
		return err
	}
	msg, err := c.Recv(p)
	if err != nil {
		return err
	}
	if a, ok := msg.Payload.(ack); ok && !a.OK {
		return fmt.Errorf("rsyncx: delete: no such staged file %q", name)
	}
	return nil
}

func recvAck(p *simproc.Proc, c *transport.Conn) error {
	msg, err := c.Recv(p)
	if err != nil {
		return err
	}
	a, ok := msg.Payload.(ack)
	if !ok {
		return fmt.Errorf("rsyncx: expected ack, got %T", msg.Payload)
	}
	if !a.OK {
		return fmt.Errorf("rsyncx: push rejected: %s", a.Err)
	}
	return nil
}
