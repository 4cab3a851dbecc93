package transport

import (
	"errors"
	"fmt"
	"testing"

	"detournet/internal/simclock"
	"detournet/internal/simproc"
)

// Hardening tests: many connections, failure timing, and cap behavior
// under adversarial sequencing.

func TestManyConcurrentConnectionsShareFairly(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		for {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			cc := c
			r.Go("h", func(hp *simproc.Proc) {
				for {
					if _, err := cc.Recv(hp); err != nil {
						return
					}
				}
			})
		}
	})
	const k = 5
	durs := make([]float64, k)
	futs := make([]*simproc.Future[bool], k)
	for i := 0; i < k; i++ {
		i := i
		futs[i] = simproc.NewFuture[bool](r)
		r.Go(fmt.Sprintf("c%d", i), func(p *simproc.Proc) {
			c, err := n.Dial(p, "client", "server", 80, DialOpts{})
			if err != nil {
				t.Error(err)
				futs[i].Set(true)
				return
			}
			t0 := p.Now()
			_ = c.Send(p, nil, 4e6)
			durs[i] = float64(p.Now() - t0)
			c.Close()
			futs[i].Set(true)
		})
	}
	r.Go("closer", func(p *simproc.Proc) {
		for _, f := range futs {
			simproc.Await(p, f)
		}
		l.Close()
	})
	r.Run()
	// 5 concurrent 4 MB transfers over the 5 MB/s bottleneck: ~4s each
	// (sharing), all within 25% of each other (max-min fairness).
	var lo, hi float64 = durs[0], durs[0]
	for _, d := range durs {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi > lo*1.25 {
		t.Fatalf("unfair sharing: durations %v", durs)
	}
	if lo < 3.5 {
		t.Fatalf("transfers too fast for a shared bottleneck: %v", durs)
	}
}

func TestDialRacesListenerClose(t *testing.T) {
	// The listener closes while a dial's handshake is in flight: the
	// dialer must get a refusal, not a connection to nowhere.
	n, r := world(t)
	l := n.MustListen("server", 80)
	var err error
	r.Go("cli", func(p *simproc.Proc) {
		_, err = n.Dial(p, "client", "server", 80, DialOpts{TLS: true})
	})
	r.Go("closer", func(p *simproc.Proc) {
		p.Sleep(0.01) // mid-handshake (TLS dial takes 150ms here)
		l.Close()
	})
	r.Run()
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("dial racing close = %v, want ErrRefused", err)
	}
}

func TestSendAfterPeerCloseStillCompletesLocally(t *testing.T) {
	// The peer closes while we send; our Send completes (bytes drained
	// into the network) but the message is not delivered.
	n, r := world(t)
	l := n.MustListen("server", 80)
	var srvConn *Conn
	got := 0
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		srvConn = c
		for {
			if _, err := c.Recv(p); err != nil {
				return
			}
			got++
		}
	})
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		_ = c.Send(p, 1, 1e6)
		p.Sleep(1)
		srvConn.Close() // peer goes away
		if err := c.Send(p, 2, 1e6); err != nil {
			t.Errorf("send into closed peer errored locally: %v", err)
		}
		c.Close()
		l.Close()
	})
	r.Run()
	if got != 1 {
		t.Fatalf("server received %d messages, want exactly 1", got)
	}
}

func TestCwndPersistsAcrossIdlePeriods(t *testing.T) {
	// Our model keeps the ramped window across idle gaps (no slow-start
	// restart) — pin that behavior so a future change is deliberate.
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		for {
			if _, err := c.Recv(p); err != nil {
				return
			}
		}
	})
	var first, second float64
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		t0 := p.Now()
		_ = c.Send(p, nil, 2e6)
		first = float64(p.Now() - t0)
		p.Sleep(300) // long idle
		t0 = p.Now()
		_ = c.Send(p, nil, 2e6)
		second = float64(p.Now() - t0)
		c.Close()
		l.Close()
	})
	r.Run()
	if second >= first {
		t.Fatalf("post-idle send (%v) should be no slower than the ramping first send (%v)", second, first)
	}
}

func TestZeroByteSendDeliversMessage(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	var got Message
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		got, _ = c.Recv(p)
	})
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		if err := c.Send(p, "ping", 0); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	r.Run()
	if got.Payload != "ping" || got.Bytes != 0 {
		t.Fatalf("zero-byte message = %+v", got)
	}
}

func TestRTTAccessors(t *testing.T) {
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		c, _ := l.Accept(p)
		if c.local != "server" || c.RemoteHost() != "client" {
			t.Errorf("server conn identity: %s %s", c.local, c.RemoteHost())
		}
		c.Close()
	})
	r.Go("cli", func(p *simproc.Proc) {
		c, _ := n.Dial(p, "client", "server", 80, DialOpts{})
		if c.local != "client" || c.RemoteHost() != "server" {
			t.Errorf("client conn identity: %s %s", c.local, c.RemoteHost())
		}
		if c.rtt <= 0 {
			t.Error("non-positive RTT")
		}
		_, _ = c.Recv(p) // wait for peer close
		l.Close()
	})
	r.Run()
}

func TestEngineTimeMonotoneUnderChaos(t *testing.T) {
	// Random mix of sends, closes, and dials must never move time
	// backwards or deadlock.
	n, r := world(t)
	l := n.MustListen("server", 80)
	r.Go("srv", func(p *simproc.Proc) {
		for {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			cc := c
			r.Go("h", func(hp *simproc.Proc) {
				for {
					if _, err := cc.Recv(hp); err != nil {
						return
					}
				}
			})
		}
	})
	var last simclock.Time
	r.Go("chaos", func(p *simproc.Proc) {
		for i := 0; i < 10; i++ {
			c, err := n.Dial(p, "client", "server", 80, DialOpts{TLS: i%2 == 0})
			if err != nil {
				t.Error(err)
				break
			}
			_ = c.Send(p, i, float64(1+i)*1e5)
			if i%3 == 0 {
				c.Close()
			}
			if p.Now() < last {
				t.Errorf("time went backwards: %v < %v", p.Now(), last)
			}
			last = p.Now()
			if i%3 != 0 {
				c.Close()
			}
		}
		l.Close()
	})
	r.Run()
}
