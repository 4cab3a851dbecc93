// Package tcpmodel captures the TCP connection dynamics that shape the
// paper's transfer-time curves: connection and TLS handshake latency,
// slow-start ramping, and the receive-window throughput ceiling
// (rate <= min(share, rwnd/RTT)).
//
// The model is deliberately loss-free: bulk transfers on the paper's
// paths are bandwidth- or window-limited, and the fluid layer already
// imposes fair sharing at bottlenecks. What matters for the shape of
// "transfer time vs file size" is the fixed per-connection cost (DNS +
// handshakes), the sub-linear ramp on small files, and the linear
// 1/throughput slope on large ones — all three are modelled here.
package tcpmodel

import (
	"math"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
)

// The connection constants of the paper's 2015 setting.
const (
	// mss is the maximum segment size in bytes.
	mss float64 = 1460
	// initCwndSegments is the initial congestion window in segments
	// (RFC 6928's IW10 was deployed by 2015).
	initCwndSegments float64 = 10
	// connectRTTs is the round trips consumed before the first data
	// byte on a new TCP connection (SYN, SYN-ACK, then data rides with
	// the ACK).
	connectRTTs float64 = 1
	// tlsRTTs is the extra round trips for a full TLS handshake (TLS
	// 1.2 without resumption, as the 2015 provider endpoints).
	tlsRTTs float64 = 2
)

// Params are the per-network TCP settings.
type Params struct {
	// RwndBytes is the receive-window cap in bytes; throughput never
	// exceeds RwndBytes/RTT. Default 1 MiB, a typical 2015 default for
	// untuned Linux hosts such as PlanetLab slivers.
	RwndBytes float64
}

// WithDefaults fills a zero RwndBytes with its default.
func (p Params) WithDefaults() Params {
	if p.RwndBytes <= 0 {
		p.RwndBytes = 1 << 20
	}
	return p
}

// ConnectDelay returns the virtual time consumed by connection
// establishment on a path with the given RTT, including TLS when tls is
// set.
func ConnectDelay(rtt float64, tls bool) float64 {
	d := connectRTTs * rtt
	if tls {
		d += tlsRTTs * rtt
	}
	return d
}

// MaxRate returns the receive-window throughput ceiling for a path RTT.
func (p Params) MaxRate(rtt float64) float64 {
	p = p.WithDefaults()
	if rtt <= 0 {
		return math.Inf(1)
	}
	return p.RwndBytes / rtt
}

// Cwnd is the congestion window of one connection, persisting across the
// multiple transfers (HTTP requests, upload chunks) that reuse it — the
// reason a chunked upload over one connection ramps only once while one
// connection per chunk pays the ramp repeatedly.
type Cwnd struct {
	bytes float64
}

// NewCwnd returns a window at the initial size IW*MSS.
func NewCwnd() *Cwnd {
	return &Cwnd{bytes: initCwndSegments * mss}
}

// RateCap returns the window-limited rate for a path RTT.
func (c *Cwnd) RateCap(rtt float64) float64 {
	if rtt <= 0 {
		return math.Inf(1)
	}
	return c.bytes / rtt
}

// Ramp grows a connection's window while a fluid flow is active,
// doubling each RTT (slow start) up to the receive window, and keeps the
// flow's rate cap in sync. A Ramp drives one flow at a time and shares
// the Cwnd of its connection direction; a connection keeps one Ramp per
// direction and starts it again for every transfer, so its doubling
// event and step callback are made once, not once per transfer.
type Ramp struct {
	fl      *fluid.Network
	flow    *fluid.Flow
	cwnd    *Cwnd
	params  Params
	rtt     float64
	stopped bool
	// next is the doubling event: pending while the ramp runs, fired
	// (and re-armed by the next doubling) once it has run.
	next *simclock.Event
	step func() // r.advance, bound once
}

// NewRamp returns a stopped ramp for one connection direction; Start
// runs it on a flow.
func NewRamp(fl *fluid.Network, cwnd *Cwnd, params Params, rtt float64) *Ramp {
	if fl == nil || cwnd == nil {
		panic("tcpmodel: nil argument")
	}
	if rtt <= 0 {
		panic("tcpmodel: non-positive rtt")
	}
	r := &Ramp{fl: fl, cwnd: cwnd, params: params.WithDefaults(), rtt: rtt, stopped: true}
	r.step = r.advance
	return r
}

// Start applies the window cap to the flow and begins doubling, after
// stopping the ramp's previous flow if it still runs. The ramp stops
// itself when the flow finishes; Stop ends it early.
func (r *Ramp) Start(flow *fluid.Flow) {
	if flow == nil {
		panic("tcpmodel: nil argument")
	}
	r.Stop()
	r.flow, r.stopped = flow, false
	r.fl.SetFlowCap(flow, r.cwnd.RateCap(r.rtt))
	r.schedule()
}

// schedule queues the next doubling one RTT from now. It re-arms the
// fired doubling event when there is one; either way the event takes
// the sequence number Schedule would give it.
func (r *Ramp) schedule() {
	if r.cwnd.bytes >= r.params.RwndBytes {
		return // fully ramped; the cap is already at the ceiling
	}
	eng := r.fl.Engine()
	at := eng.Now() + simclock.Time(r.rtt)
	if !eng.Rearm(r.next, at) {
		r.next = eng.Schedule(at, r.step)
	}
}

func (r *Ramp) advance() {
	if r.stopped || r.flow.State() != fluid.FlowActive {
		return
	}
	r.cwnd.bytes = math.Min(r.cwnd.bytes*2, r.params.RwndBytes)
	r.fl.SetFlowCap(r.flow, r.cwnd.RateCap(r.rtt))
	r.schedule()
}

// Stop cancels future window growth (the current cap stays in place).
// A pending doubling event is cancelled and handed back to the engine.
func (r *Ramp) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.flow = nil
	if eng := r.fl.Engine(); eng.Cancel(r.next) {
		eng.Release(r.next)
		r.next = nil
	}
}

// Reset readies a stopped ramp for a new connection with the given
// RTT; its doubling event and step callback are kept. Resetting a
// running ramp panics.
func (r *Ramp) Reset(rtt float64) {
	if !r.stopped {
		panic("tcpmodel: reset of a running ramp")
	}
	if rtt <= 0 {
		panic("tcpmodel: non-positive rtt")
	}
	r.rtt = rtt
}

// EstimateTransferTime returns the closed-form time to move size bytes
// over a path with the given steady rate and RTT under this model:
// slow-start doublings from the initial window, then the steady rate.
func (p Params) EstimateTransferTime(size, steadyRate, rtt float64) float64 {
	p = p.WithDefaults()
	if size <= 0 {
		return 0
	}
	if steadyRate <= 0 {
		return math.Inf(1)
	}
	steadyRate = math.Min(steadyRate, p.MaxRate(rtt))
	w := initCwndSegments * mss // bytes sent in the first RTT
	var t, sent float64
	for sent < size && w < steadyRate*rtt {
		send := math.Min(w, size-sent)
		sent += send
		t += rtt
		w *= 2
	}
	if sent < size {
		t += (size - sent) / steadyRate
	}
	return t
}
