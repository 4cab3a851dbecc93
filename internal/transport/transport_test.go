package transport

import (
	"errors"
	"math"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
)

// world builds: client -- 10 MB/s, 10ms -- router -- 5 MB/s, 15ms -- server
func world(t *testing.T) (*Net, *simproc.Runner) {
	t.Helper()
	return worldRwnd(t, 4<<20)
}

// worldRwnd builds world's topology on a Net with the given receive
// window.
func worldRwnd(t *testing.T, rwnd float64) (*Net, *simproc.Runner) {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	for _, n := range []string{"client", "router", "server", "other"} {
		g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
	}
	g.MustConnect("client", "router", topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.010})
	g.MustConnect("router", "server", topology.LinkSpec{CapacityBps: 5e6, DelaySec: 0.015})
	g.MustConnect("router", "other", topology.LinkSpec{CapacityBps: 5e6, DelaySec: 0.005})
	return NewNet(g, r, tcpmodel.Params{RwndBytes: rwnd}), r
}

func TestDialRefusedWithoutListener(t *testing.T) {
	n, r := world(t)
	var err error
	r.Go("c", func(p *simproc.Proc) {
		_, err = n.Dial(p, "client", "server", 443, DialOpts{})
	})
	r.Run()
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestListenErrors(t *testing.T) {
	n, _ := world(t)
	if _, err := n.Listen("ghost", 80); err == nil {
		t.Fatal("listen on unknown host accepted")
	}
	n.MustListen("server", 80)
	if _, err := n.Listen("server", 80); err == nil {
		t.Fatal("double bind accepted")
	}
}

func TestHandshakeDelay(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 443)
	r.Go("srv", func(p *simproc.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	var connectedAt simclock.Time
	var rtt float64
	r.Go("cli", func(p *simproc.Proc) {
		c, err := n.Dial(p, "client", "server", 443, DialOpts{TLS: true})
		if err != nil {
			t.Error(err)
			return
		}
		connectedAt = p.Now()
		rtt = c.rtt
		if _, err := c.Recv(p); !errors.Is(err, EOF) {
			t.Errorf("Recv after peer close = %v, want EOF", err)
		}
	})
	r.Run()
	// RTT = 2*(10+15)ms = 50ms; TLS dial = 3 RTT = 150ms.
	if math.Abs(rtt-0.050) > 1e-9 {
		t.Fatalf("rtt = %v, want 0.050", rtt)
	}
	if math.Abs(float64(connectedAt)-0.150) > 1e-9 {
		t.Fatalf("connected at %v, want 0.150", connectedAt)
	}
}

func TestBulkTransferTime(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	var recvBytes float64
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		m, err := c.Recv(p)
		if err != nil {
			t.Error(err)
			return
		}
		recvBytes = m.Bytes
	})
	var sendDone simclock.Time
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		if err := c.Send(p, "blob", 10e6); err != nil {
			t.Error(err)
		}
		sendDone = p.Now()
	})
	end := r.Run()
	if recvBytes != 10e6 {
		t.Fatalf("received %v bytes", recvBytes)
	}
	// Bottleneck 5 MB/s, ~10.3 MB wire: >= 2.06s; plus ramp and
	// handshake, but well under 3s. And rwnd 4MB / 50ms = 80MB/s, no cap.
	if sendDone < 2.0 || sendDone > 3.0 {
		t.Fatalf("send finished at %v, want ~2.1-3s", sendDone)
	}
	if end < sendDone {
		t.Fatalf("sim ended before delivery: %v < %v", end, sendDone)
	}
}

func TestSmallRwndCapsThroughput(t *testing.T) {
	n, r := worldRwnd(t, 64<<10) // 64 KiB on a 50ms path = 1.31 MB/s
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		_, _ = c.Recv(p)
	})
	var sendDur float64
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		start := p.Now()
		_ = c.Send(p, nil, 10e6)
		sendDur = float64(p.Now() - start)
	})
	r.Run()
	// 10.3 MB at 1.31 MB/s ≈ 7.9s — far above the unconstrained 2.1s.
	if sendDur < 7 || sendDur > 10 {
		t.Fatalf("window-capped transfer took %v, want ~8s", sendDur)
	}
}

func TestMessagesArriveInOrder(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	var got []int
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		for i := 0; i < 3; i++ {
			m, err := c.Recv(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, m.Payload.(int))
		}
	})
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		for i := 1; i <= 3; i++ {
			_ = c.Send(p, i, 1000)
		}
	})
	r.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentSendersSerialized(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	var got []string
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		for i := 0; i < 2; i++ {
			m, _ := c.Recv(p)
			got = append(got, m.Payload.(string))
		}
	})
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		inner := simproc.NewFuture[bool](r)
		r.Go("cli2", func(p2 *simproc.Proc) {
			_ = c.Send(p2, "second", 1e6) // queued behind the first send
			inner.Set(true)
		})
		_ = c.Send(p, "first", 1e6)
		simproc.Await(p, inner)
	})
	r.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
}

func TestExchange(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		m, _ := c.Recv(p)
		_ = c.Send(p, m.Payload.(string)+"-ack", 200)
	})
	var reply string
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		m, err := c.Exchange(p, "req", 300)
		if err != nil {
			t.Error(err)
			return
		}
		reply = m.Payload.(string)
	})
	r.Run()
	if reply != "req-ack" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestCloseSemantics(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		if _, err := c.Recv(p); !errors.Is(err, EOF) {
			t.Errorf("server Recv = %v, want EOF", err)
		}
	})
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		c.Close()
		c.Close() // idempotent
		if err := c.Send(p, nil, 10); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after close = %v", err)
		}
		if _, err := c.Recv(p); !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after local close = %v", err)
		}
	})
	r.Run()
}

func TestListenerCloseWakesAccept(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	var acceptErr error
	r.Go("srv", func(p *simproc.Proc) {
		_, acceptErr = l.Accept(p)
	})
	r.Go("closer", func(p *simproc.Proc) {
		p.Sleep(1)
		l.Close()
	})
	r.Run()
	if !errors.Is(acceptErr, ErrClosed) {
		t.Fatalf("Accept after close = %v", acceptErr)
	}
	// Port is free again.
	if _, err := n.Listen("server", 80); err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
}

func TestPerChunkConnectionsPayRampRepeatedly(t *testing.T) {
	// Sending N chunks over one connection must beat sending them over N
	// fresh connections (handshake + slow-start restart each time) —
	// the effect that differentiates the providers' chunking APIs.
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		for {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			r.Go("handler", func(p2 *simproc.Proc) {
				for {
					if _, err := c.Recv(p2); err != nil {
						return
					}
				}
			})
		}
	})
	const chunk = 1e6
	const nChunks = 8
	var oneConn, manyConn float64
	done := simproc.NewFuture[bool](r)
	r.Go("one-conn", func(p *simproc.Proc) {
		start := p.Now()
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		for i := 0; i < nChunks; i++ {
			_ = c.Send(p, i, chunk)
		}
		oneConn = float64(p.Now() - start)
		c.Close()
		// Now per-chunk connections, serially.
		start = p.Now()
		for i := 0; i < nChunks; i++ {
			ci, _ := n.Dial(p, "client", "server", 80, DialOpts{})
			_ = ci.Send(p, i, chunk)
			ci.Close()
		}
		manyConn = float64(p.Now() - start)
		done.Set(true)
	})
	r.Go("stop", func(p *simproc.Proc) {
		simproc.Await(p, done)
		l.Close()
	})
	r.Run()
	if manyConn <= oneConn*1.2 {
		t.Fatalf("per-chunk connections too cheap: one=%v many=%v", oneConn, manyConn)
	}
}

func TestNoRouteDialFails(t *testing.T) {
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	g.MustAddNode(&topology.Node{Name: "a"})
	g.MustAddNode(&topology.Node{Name: "b"})
	n := NewNet(g, r, tcpmodel.Params{})
	n.MustListen("b", 80)
	var err error
	r.Go("c", func(p *simproc.Proc) {
		_, err = n.Dial(p, "a", "b", 80, DialOpts{})
	})
	r.Run()
	if err == nil {
		t.Fatal("dial across disconnected graph succeeded")
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) { _, _ = l.Accept(p) })
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		if err := c.Send(p, nil, -5); err == nil {
			t.Error("negative size accepted")
		}
		c.Close()
	})
	r.Run()
}

// A warm connection's ping-pong allocates little per message: the flow
// label, ramp, completion callbacks, arrival callback and their events
// are made once per connection and recycled, leaving the fluid flow
// itself.
func TestWarmPingPongAllocs(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			m, err := c.Recv(p)
			if err != nil {
				return
			}
			if err := c.Send(p, m.Payload, m.Bytes); err != nil {
				return
			}
		}
	})
	kick := simproc.NewQueue[bool](r)
	r.Go("cli", func(p *simproc.Proc) {
		c, err := n.Dial(p, "client", "server", 80, DialOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		for kick.Pop(p) {
			if _, err := c.Exchange(p, "ping", 2000); err != nil {
				t.Error(err)
				return
			}
		}
		c.Close()
	})
	round := func() {
		kick.Push(true)
		r.Drive()
	}
	for i := 0; i < 10; i++ { // warm up: ramp, queues and free list
		round()
	}
	// Measured: 2 per message (the fluid flow and its completion
	// callback), with and without -race; 17.5 before the per-connection
	// recycling. The bound is the measured value.
	if perMsg := testing.AllocsPerRun(200, round) / 2; perMsg > 2 {
		t.Fatalf("%v allocations per message on a warm connection, want <= 2", perMsg)
	}
	kick.Push(false)
	r.Run()
}
