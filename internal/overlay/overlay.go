// Package overlay generalizes the paper's one-hop routing detours into a
// small resilient-overlay-network (RON-style) substrate: overlay member
// hosts run a daemon that can probe each other and relay payloads along
// multi-hop paths; a Mesh controller maintains pairwise throughput
// estimates from periodic probes and routes each transfer over the
// widest (max-bottleneck-throughput) path within a hop budget.
//
// This is the paper's stated future work — "monitor and bypass dynamic
// bottlenecks on the WAN" — built on the same transport substrate as the
// detour system, so the overlay-monitor example can show a congestion
// episode appearing on the direct path and the mesh routing around it.
package overlay

import (
	"fmt"
	"math"
	"sort"

	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/transport"
)

// Port is the overlay daemon port.
const Port = 9101

const ctrlBytes = 96

// Daemon is one overlay member's service: it answers probe and relay
// commands from peers and controllers.
type Daemon struct {
	tn   *transport.Net
	host string
	// Relayed counts payloads forwarded through this member.
	Relayed int
}

// NewDaemon returns a daemon for the host.
func NewDaemon(tn *transport.Net, host string) *Daemon {
	if tn == nil {
		panic("overlay: nil transport")
	}
	return &Daemon{tn: tn, host: host}
}

// Start binds the daemon and serves until the listener closes.
func (d *Daemon) Start() *transport.Listener {
	l := d.tn.MustListen(d.host, Port)
	r := d.tn.Runner()
	r.Go("overlayd:"+d.host, func(p *simproc.Proc) {
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			r.Go("overlayd-conn:"+c.RemoteHost(), func(hp *simproc.Proc) {
				d.serve(hp, c)
			})
		}
	})
	return l
}

// Wire messages.

type probeCmd struct {
	Target string
	Bytes  float64
}

type payloadMsg struct {
	Bytes float64
	// Path holds the remaining hops after this one; empty means this
	// member is the destination.
	Path []string
}

type result struct {
	OK      bool
	Err     string
	Seconds float64
}

func (d *Daemon) serve(p *simproc.Proc, c *transport.Conn) {
	defer c.Close()
	for {
		msg, err := c.Recv(p)
		if err != nil {
			return
		}
		switch m := msg.Payload.(type) {
		case probeCmd:
			d.handleProbe(p, c, m)
		case payloadMsg:
			d.handlePayload(p, c, m)
		default:
			_ = c.Send(p, result{OK: false, Err: "protocol error"}, ctrlBytes)
			return
		}
	}
}

// handleProbe times a payload transfer from this member to the target
// member and reports the duration to the requester.
func (d *Daemon) handleProbe(p *simproc.Proc, c *transport.Conn, m probeCmd) {
	t0 := p.Now()
	err := d.forward(p, m.Target, payloadMsg{Bytes: m.Bytes})
	if err != nil {
		_ = c.Send(p, result{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	_ = c.Send(p, result{OK: true, Seconds: float64(p.Now() - t0)}, ctrlBytes)
}

// handlePayload accepts a payload; if more hops remain it forwards
// (store-and-forward) and reports the outcome upstream.
func (d *Daemon) handlePayload(p *simproc.Proc, c *transport.Conn, m payloadMsg) {
	if len(m.Path) == 0 {
		_ = c.Send(p, result{OK: true}, ctrlBytes)
		return
	}
	d.Relayed++
	next, rest := m.Path[0], m.Path[1:]
	if err := d.forward(p, next, payloadMsg{Bytes: m.Bytes, Path: rest}); err != nil {
		_ = c.Send(p, result{OK: false, Err: err.Error()}, ctrlBytes)
		return
	}
	_ = c.Send(p, result{OK: true}, ctrlBytes)
}

// forward sends a payload to the next member and waits for its ack.
func (d *Daemon) forward(p *simproc.Proc, next string, m payloadMsg) error {
	conn, err := d.tn.Dial(p, d.host, next, Port, transport.DialOpts{})
	if err != nil {
		return err
	}
	defer conn.Close()
	reply, err := conn.Exchange(p, m, m.Bytes+ctrlBytes)
	if err != nil {
		return err
	}
	res, ok := reply.Payload.(result)
	if !ok {
		return fmt.Errorf("overlay: hop %s sent %T", next, reply.Payload)
	}
	if !res.OK {
		return fmt.Errorf("overlay: hop %s: %s", next, res.Err)
	}
	return nil
}

// Stat is the mesh's view of one directed member pair.
type Stat struct {
	// Rate is the EWMA throughput estimate in bytes/second.
	Rate float64
	// Probes counts measurements taken.
	Probes int
	// LastProbe is the virtual time of the latest measurement.
	LastProbe simclock.Time
}

// Mesh is the overlay controller: membership, link statistics, path
// selection, and transfers.
type Mesh struct {
	tn      *transport.Net
	from    string // controller's host, used to dial member daemons
	members []string
	stats   map[[2]string]*Stat

	// MaxIntermediates bounds detour length; 1 reproduces the paper's
	// single-hop detours, larger values allow RON-style multi-hop.
	MaxIntermediates int
	// ProbeBytes sizes monitoring transfers (default 1 MiB).
	ProbeBytes float64
	// Alpha is the EWMA weight of new probes.
	Alpha float64
}

// NewMesh returns a controller at `from` for the given member hosts
// (each must run a Daemon).
func NewMesh(tn *transport.Net, from string, members []string) *Mesh {
	if len(members) < 2 {
		panic("overlay: mesh needs at least 2 members")
	}
	return &Mesh{
		tn: tn, from: from,
		members:          append([]string(nil), members...),
		stats:            make(map[[2]string]*Stat),
		MaxIntermediates: 1,
		ProbeBytes:       1 << 20,
		Alpha:            0.4,
	}
}

// Probe measures src->dst once by commanding src's daemon and folds the
// result into the EWMA.
func (m *Mesh) Probe(p *simproc.Proc, src, dst string) (float64, error) {
	var seconds float64
	if src == m.from {
		// The controller is the probe source: time the transfer itself.
		conn, err := m.tn.Dial(p, m.from, dst, Port, transport.DialOpts{})
		if err != nil {
			return 0, err
		}
		t0 := p.Now()
		reply, err := conn.Exchange(p, payloadMsg{Bytes: m.ProbeBytes}, m.ProbeBytes+ctrlBytes)
		conn.Close()
		if err != nil {
			return 0, err
		}
		if res, ok := reply.Payload.(result); !ok || !res.OK {
			return 0, fmt.Errorf("overlay: probe %s->%s failed: %+v", src, dst, reply.Payload)
		}
		seconds = float64(p.Now() - t0)
	} else {
		conn, err := m.tn.Dial(p, m.from, src, Port, transport.DialOpts{})
		if err != nil {
			return 0, err
		}
		reply, err := conn.Exchange(p, probeCmd{Target: dst, Bytes: m.ProbeBytes}, ctrlBytes)
		conn.Close()
		if err != nil {
			return 0, err
		}
		res, ok := reply.Payload.(result)
		if !ok || !res.OK {
			return 0, fmt.Errorf("overlay: probe %s->%s failed: %+v", src, dst, reply.Payload)
		}
		seconds = res.Seconds
	}
	rate := m.ProbeBytes / seconds
	key := [2]string{src, dst}
	s := m.stats[key]
	if s == nil {
		s = &Stat{Rate: rate}
		m.stats[key] = s
	} else {
		s.Rate = m.Alpha*rate + (1-m.Alpha)*s.Rate
	}
	s.Probes++
	s.LastProbe = p.Now()
	return rate, nil
}

// ProbeAll measures every ordered member pair once, in deterministic
// order. A pair whose probe fails (unreachable member, dead link) has
// its rate zeroed and the sweep continues — path selection then routes
// around it, which is the point of monitoring.
func (m *Mesh) ProbeAll(p *simproc.Proc) error {
	srcs := append([]string(nil), m.members...)
	sort.Strings(srcs)
	var firstErr error
	for _, s := range srcs {
		for _, d := range srcs {
			if s == d {
				continue
			}
			if _, err := m.Probe(p, s, d); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				key := [2]string{s, d}
				if st := m.stats[key]; st != nil {
					st.Rate = 0
					st.Probes++
				} else {
					m.stats[key] = &Stat{Rate: 0, Probes: 1}
				}
			}
		}
	}
	return firstErr
}

// Monitor starts a background process probing all pairs every interval
// seconds until the returned stop function is called.
func (m *Mesh) Monitor(interval float64) (stop func()) {
	stopped := false
	r := m.tn.Runner()
	r.Go("overlay-monitor", func(p *simproc.Proc) {
		for !stopped {
			_ = m.ProbeAll(p) // failed pairs are zeroed; keep monitoring
			p.Sleep(interval)
		}
	})
	return func() { stopped = true }
}

// BestPath returns the member path (src first, dst last) maximizing the
// bottleneck throughput estimate, with at most MaxIntermediates relay
// members, and that bottleneck rate. Pairs never probed rate as zero.
func (m *Mesh) BestPath(src, dst string) ([]string, float64) {
	rate := func(a, b string) float64 {
		if s, ok := m.stats[[2]string{a, b}]; ok {
			return s.Rate
		}
		return 0
	}
	type cand struct {
		path []string
		bw   float64
	}
	best := cand{path: []string{src, dst}, bw: rate(src, dst)}
	var extend func(path []string, bw float64)
	extend = func(path []string, bw float64) {
		last := path[len(path)-1]
		if len(path)-1 > m.MaxIntermediates {
			return
		}
		// Close the path to dst.
		if closeBW := math.Min(bw, rate(last, dst)); closeBW > best.bw {
			best = cand{path: append(append([]string(nil), path...), dst), bw: closeBW}
		}
		for _, mem := range m.members {
			if mem == dst || contains(path, mem) {
				continue
			}
			nb := math.Min(bw, rate(last, mem))
			if nb <= best.bw { // cannot improve the bottleneck
				continue
			}
			extend(append(append([]string(nil), path...), mem), nb)
		}
	}
	extend([]string{src}, math.Inf(1))
	return best.path, best.bw
}

// Transfer moves size bytes along an explicit member path
// (store-and-forward at each hop) and returns the elapsed seconds. When
// the controller host is itself the path's source the payload is sent
// straight to the next hop; otherwise the payload is injected at the
// source member first.
func (m *Mesh) Transfer(p *simproc.Proc, path []string, size float64) (float64, error) {
	if len(path) < 2 {
		return 0, fmt.Errorf("overlay: path needs at least src and dst")
	}
	first, rest := path[0], path[1:]
	if first == m.from {
		first, rest = rest[0], rest[1:]
	}
	conn, err := m.tn.Dial(p, m.from, first, Port, transport.DialOpts{})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	t0 := p.Now()
	reply, err := conn.Exchange(p, payloadMsg{Bytes: size, Path: rest}, size+ctrlBytes)
	if err != nil {
		return 0, err
	}
	res, ok := reply.Payload.(result)
	if !ok || !res.OK {
		return 0, fmt.Errorf("overlay: transfer failed: %+v", reply.Payload)
	}
	return float64(p.Now() - t0), nil
}

// Send routes size bytes from src to dst over the current best path and
// returns the path taken and the elapsed seconds.
func (m *Mesh) Send(p *simproc.Proc, src, dst string, size float64) ([]string, float64, error) {
	path, bw := m.BestPath(src, dst)
	if bw <= 0 {
		return nil, 0, fmt.Errorf("overlay: no probed path %s -> %s", src, dst)
	}
	sec, err := m.Transfer(p, path, size)
	return path, sec, err
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
