// Package transport provides a blocking, connection-oriented byte
// transport over the simulated WAN — the layer the HTTP, rsync, and
// cloud-SDK code is written against, mirroring how the paper's Java
// clients sat on TCP sockets.
//
// A Conn is one TCP(-ish) connection: Dial pays connect + TLS handshake
// round trips, each direction has its own congestion window that
// slow-starts once per connection (so protocols that reuse a connection
// ramp once, and protocols that reconnect per chunk pay the ramp every
// time), and message delivery adds the path's one-way propagation delay.
package transport

import (
	"errors"
	"fmt"
	"slices"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrRefused is returned by Dial when nothing listens at the address.
var ErrRefused = errors.New("transport: connection refused")

// EOF signals the peer closed the connection cleanly.
var EOF = errors.New("transport: EOF")

// ErrReset is returned by Send when the path fails underneath an
// in-flight transfer (a link on the route went down and the fluid flow
// was killed). The connection is dead afterwards: both ends observe a
// close, like a TCP RST.
var ErrReset = errors.New("transport: connection reset")

// DefaultOverheadFactor inflates application bytes to wire bytes
// (TCP/IP/TLS framing, ~3 %).
const DefaultOverheadFactor = 1.03

// minWireBytes floors tiny messages at one packet's worth of bytes.
const minWireBytes = 64

// Net is the transport factory bound to a topology.
type Net struct {
	g      *topology.Graph
	runner *simproc.Runner
	params tcpmodel.Params

	// OverheadFactor converts payload bytes to wire bytes; defaults to
	// DefaultOverheadFactor.
	OverheadFactor float64

	listeners map[string]*Listener
}

// NewNet returns a transport over the graph. params zero-values are
// filled with tcpmodel defaults.
func NewNet(g *topology.Graph, r *simproc.Runner, params tcpmodel.Params) *Net {
	if g == nil || r == nil {
		panic("transport: nil graph or runner")
	}
	return &Net{
		g:              g,
		runner:         r,
		params:         params.WithDefaults(),
		OverheadFactor: DefaultOverheadFactor,
		listeners:      make(map[string]*Listener),
	}
}

// Runner returns the process runner.
func (n *Net) Runner() *simproc.Runner { return n.runner }

func addrKey(host string, port int) string { return fmt.Sprintf("%s:%d", host, port) }

// Listener accepts incoming connections at a host:port.
type Listener struct {
	net     *Net
	host    string
	port    int
	backlog *simproc.Queue[*Conn]
	closed  bool
}

// Listen binds a listener. The host must exist in the topology.
func (n *Net) Listen(host string, port int) (*Listener, error) {
	if _, ok := n.g.Node(host); !ok {
		return nil, fmt.Errorf("transport: unknown host %q", host)
	}
	key := addrKey(host, port)
	if _, ok := n.listeners[key]; ok {
		return nil, fmt.Errorf("transport: address %s already bound", key)
	}
	l := &Listener{net: n, host: host, port: port, backlog: simproc.NewQueue[*Conn](n.runner)}
	n.listeners[key] = l
	return l, nil
}

// MustListen is Listen, panicking on error; for static server setup.
func (n *Net) MustListen(host string, port int) *Listener {
	l, err := n.Listen(host, port)
	if err != nil {
		panic(err)
	}
	return l
}

// Accept blocks until a connection arrives and returns its server end.
func (l *Listener) Accept(p *simproc.Proc) (*Conn, error) {
	if l.closed {
		return nil, ErrClosed
	}
	c := l.backlog.Pop(p)
	if c == nil {
		return nil, ErrClosed
	}
	return c, nil
}

// Close unbinds the listener and wakes pending Accepts with an error.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.net.listeners, addrKey(l.host, l.port))
	l.backlog.Push(nil)
}

// Addr returns the listener's bind address.
func (l *Listener) Addr() string { return addrKey(l.host, l.port) }

// DialOpts tunes one connection.
type DialOpts struct {
	// TLS adds the TLS handshake round trips and marks the connection
	// encrypted.
	TLS bool
}

// Message is one application message as received.
type Message struct {
	// Payload is the application object (HTTP request, rsync frame, ...).
	Payload any
	// Bytes is the payload's size used for wire timing.
	Bytes float64
}

type inboxItem struct {
	msg Message
	err error
}

// Conn is one endpoint of an established connection.
type Conn struct {
	net    *Net
	local  string
	remote string
	port   int

	rtt      float64
	fwdLinks []*fluid.Link
	fwdDelay float64
	label    string // flow label "src->dst:port", built on the first Send

	sendCwnd    tcpmodel.Cwnd
	sendRamp    *tcpmodel.Ramp // this direction's slow start, one per Conn
	sendBusy    bool
	sendWaiters []*simproc.Future[bool]
	// sendDone receives the outcome of the running send's flow (true:
	// delivered, false: killed) from sendOpts' callbacks, built once.
	sendDone *simproc.Queue[bool]
	sendOpts fluid.FlowOpts

	// inflight holds what this end sent (messages, then at most one EOF)
	// and the peer has not received yet, oldest first. Every arrival is
	// one posted event running arrive, fwdDelay after its send: the
	// delay is the same for all of them, so they fire in this order.
	inflight []inboxItem
	arrive   func() // c.deliver, bound once

	inbox  *simproc.Queue[inboxItem]
	peer   *Conn
	closed bool
}

// Dial connects from srcHost to dstHost:port, blocking through the
// routing lookup and TCP/TLS handshakes. The returned connection's
// server end is delivered to the destination listener.
func (n *Net) Dial(p *simproc.Proc, srcHost, dstHost string, port int, opts DialOpts) (*Conn, error) {
	l, ok := n.listeners[addrKey(dstHost, port)]
	if !ok || l.closed {
		return nil, fmt.Errorf("%w: %s", ErrRefused, addrKey(dstHost, port))
	}
	fwd, err := n.g.RoutedLinks(srcHost, dstHost)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	rev, err := n.g.RoutedLinks(dstHost, srcHost)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	rtt := fluid.PathDelay(fwd) + fluid.PathDelay(rev)
	p.Sleep(tcpmodel.ConnectDelay(rtt, opts.TLS))
	if l.closed { // listener vanished during the handshake
		return nil, fmt.Errorf("%w: %s", ErrRefused, addrKey(dstHost, port))
	}

	client := n.newConn(srcHost, dstHost, port, rtt, fwd)
	server := n.newConn(dstHost, srcHost, port, rtt, rev)
	client.peer = server
	server.peer = client
	l.backlog.Push(server)
	return client, nil
}

// newConn builds one endpoint sending over links.
func (n *Net) newConn(local, remote string, port int, rtt float64, links []*fluid.Link) *Conn {
	c := &Conn{
		net: n, local: local, remote: remote, port: port,
		rtt:      rtt,
		fwdLinks: links, fwdDelay: fluid.PathDelay(links),
		sendCwnd: *tcpmodel.NewCwnd(),
		inbox:    simproc.NewQueue[inboxItem](n.runner),
	}
	c.sendRamp = tcpmodel.NewRamp(n.g.Fluid(), &c.sendCwnd, n.params, rtt)
	c.sendDone = simproc.NewQueue[bool](n.runner)
	c.sendOpts = fluid.FlowOpts{
		OnComplete: func(*fluid.Flow) { c.sendDone.Push(true) },
		OnAbort:    func(*fluid.Flow) { c.sendDone.Push(false) },
	}
	c.arrive = c.deliver
	return c
}

// RemoteHost returns the peer's host name.
func (c *Conn) RemoteHost() string { return c.remote }

// acquireSend serializes senders in this direction, FIFO.
func (c *Conn) acquireSend(p *simproc.Proc) {
	for c.sendBusy {
		f := simproc.NewFuture[bool](c.net.runner)
		c.sendWaiters = append(c.sendWaiters, f)
		simproc.Await(p, f)
	}
	c.sendBusy = true
}

func (c *Conn) releaseSend() {
	c.sendBusy = false
	if len(c.sendWaiters) > 0 {
		f := c.sendWaiters[0]
		c.sendWaiters = slices.Delete(c.sendWaiters, 0, 1)
		f.Set(true)
	}
}

// Send transmits payload as size application bytes, blocking until the
// last byte leaves the sender (wire time under the connection's window
// and the path's fair share). The peer receives the message one-way
// propagation later.
func (c *Conn) Send(p *simproc.Proc, payload any, size float64) error {
	if c.closed {
		return ErrClosed
	}
	if size < 0 {
		return fmt.Errorf("transport: negative size %v", size)
	}
	c.acquireSend(p)
	defer c.releaseSend()
	if c.closed {
		return ErrClosed
	}
	wire := size*c.net.OverheadFactor + minWireBytes
	fl := c.net.g.Fluid()
	// Labels are "src->dst:port", prefixed "scope|" when the sending
	// process carries a flow scope — the handle a multipath driver uses
	// to abort one transfer's flows and never another's, even between
	// the same endpoint pair.
	if c.label == "" {
		c.label = fmt.Sprintf("%s->%s:%d", c.local, c.remote, c.port)
	}
	label := c.label
	if sc := p.Scope(); sc != "" {
		label = sc + "|" + label
	}
	opts := c.sendOpts
	opts.Label = label
	flow := fl.StartFlow(c.fwdLinks, wire, opts)
	c.sendRamp.Start(flow)
	ok := c.sendDone.Pop(p)
	c.sendRamp.Stop()
	if !ok {
		// The path died mid-transfer: tear the connection down so both
		// ends (and any parked receivers) observe the failure.
		c.Close()
		return ErrReset
	}
	c.post(inboxItem{msg: Message{Payload: payload, Bytes: size}})
	return nil
}

// post puts it on the wire to the peer, arriving one-way propagation
// from now.
func (c *Conn) post(it inboxItem) {
	eng := c.net.runner.Engine()
	c.inflight = append(c.inflight, it)
	eng.Post(eng.Now()+simclock.Time(c.fwdDelay), c.arrive)
}

// deliver hands the oldest in-flight item to the peer, unless the peer
// has closed.
func (c *Conn) deliver() {
	it := c.inflight[0]
	c.inflight = slices.Delete(c.inflight, 0, 1)
	if !c.peer.closed {
		c.peer.inbox.Push(it)
	}
}

// Recv blocks until a message (or close) arrives from the peer.
func (c *Conn) Recv(p *simproc.Proc) (Message, error) {
	if c.closed {
		return Message{}, ErrClosed
	}
	it := c.inbox.Pop(p)
	return it.msg, it.err
}

// Close shuts down both directions. The peer's pending and future Recvs
// observe EOF after one-way propagation. Close is idempotent.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.post(inboxItem{err: EOF})
	// Unblock local receivers too.
	c.inbox.Push(inboxItem{err: ErrClosed})
}

// Closed reports whether this end was closed locally.
func (c *Conn) Closed() bool { return c.closed }

// Exchange is the common request/response idiom: send a message, then
// block for the reply.
func (c *Conn) Exchange(p *simproc.Proc, payload any, sendBytes float64) (Message, error) {
	if err := c.Send(p, payload, sendBytes); err != nil {
		return Message{}, err
	}
	return c.Recv(p)
}
