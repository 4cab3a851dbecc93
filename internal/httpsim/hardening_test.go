package httpsim

import (
	"fmt"
	"testing"

	"detournet/internal/simproc"
)

// Hardening tests: concurrency, keep-alive reuse edge cases, and
// pipelining discipline on shared connections.

func TestConcurrentClientsIndependentConnections(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusOK, Body: []byte(req.Header.Get("X-Who"))}
		})
	})
	results := make([]string, 4)
	futs := make([]*simproc.Future[bool], 4)
	for i := 0; i < 4; i++ {
		i := i
		futs[i] = simproc.NewFuture[bool](r)
		r.Go(fmt.Sprintf("cli-%d", i), func(p *simproc.Proc) {
			c := NewClient(n, "client", 443, true)
			resp, err := c.Do(p, &Request{Method: "GET", Path: "/", Host: "server",
				Header: Header{{Key: "X-Who", Value: fmt.Sprintf("c%d", i)}}})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			} else {
				results[i] = string(resp.Body)
			}
			c.CloseIdle()
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
	for i, got := range results {
		if got != fmt.Sprintf("c%d", i) {
			t.Fatalf("client %d got %q", i, got)
		}
	}
}

func TestSharedClientInterleavedRequests(t *testing.T) {
	// Two processes sharing one keep-alive client: responses must match
	// requests (FIFO discipline on the shared connection).
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("POST", "/echo", func(ctx *Ctx, req *Request) *Response {
			ctx.Proc.Sleep(0.05) // make responses non-instant
			return &Response{Status: StatusOK, Body: req.Body}
		})
	})
	c := NewClient(n, "client", 443, true)
	check := func(p *simproc.Proc, tag string) {
		for k := 0; k < 3; k++ {
			body := fmt.Sprintf("%s-%d", tag, k)
			resp, err := c.Do(p, &Request{Method: "POST", Path: "/echo", Host: "server",
				Body: []byte(body)})
			if err != nil {
				t.Errorf("%s: %v", tag, err)
				return
			}
			if string(resp.Body) != body {
				t.Errorf("%s: got %q want %q (response mismatched to request)", tag, resp.Body, body)
				return
			}
		}
	}
	f1 := simproc.NewFuture[bool](r)
	f2 := simproc.NewFuture[bool](r)
	r.Go("a", func(p *simproc.Proc) { check(p, "a"); f1.Set(true) })
	r.Go("b", func(p *simproc.Proc) { check(p, "b"); f2.Set(true) })
	r.Go("closer", func(p *simproc.Proc) {
		simproc.Await(p, f1)
		simproc.Await(p, f2)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
}

func TestClientSurvivesServerConnectionDrop(t *testing.T) {
	// The server drops each connection after one response; the client's
	// keep-alive retry dials a fresh connection per request.
	n, r := world(t)
	s := NewServer(n)
	s.Handle("GET", "/", func(ctx *Ctx, req *Request) *Response {
		return &Response{Status: StatusOK}
	})
	l := n.MustListen("server", 443)
	r.Go("dropper", func(p *simproc.Proc) {
		for {
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			c := conn
			r.Go("one-shot", func(hp *simproc.Proc) {
				msg, err := c.Recv(hp)
				if err != nil {
					return
				}
				req := msg.Payload.(*Request)
				resp := s.dispatch(&Ctx{Proc: hp, RemoteHost: c.RemoteHost()}, req)
				_ = c.Send(hp, resp, resp.Size())
				c.Close() // drop after one exchange
			})
		}
	})
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		for i := 0; i < 3; i++ {
			req := &Request{Method: "GET", Path: "/", Host: "server"}
			resp, err := c.Do(p, req)
			if err != nil || resp.Status != StatusOK {
				t.Errorf("request %d: %v %v", i, resp, err)
				break
			}
			// Only the first request found no dead kept-alive conn; the
			// others went out twice, the second time on a fresh dial.
			if got, want := req.Resent(), i > 0; got != want {
				t.Errorf("request %d: Resent() = %v, want %v", i, got, want)
			}
			// Give the close EOF time to land in the kept-alive conn.
			p.Sleep(1)
		}
		c.CloseIdle()
		l.Close()
	})
	r.Run()
}

func TestManySequentialRequestsOneConnection(t *testing.T) {
	n, r := world(t)
	served := 0
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/", func(ctx *Ctx, req *Request) *Response {
			served++
			return &Response{Status: StatusOK}
		})
	})
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		for i := 0; i < 50; i++ {
			if _, err := c.Do(p, &Request{Method: "GET", Path: "/", Host: "server"}); err != nil {
				t.Errorf("request %d: %v", i, err)
				break
			}
		}
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	if served != 50 {
		t.Fatalf("served %d, want 50", served)
	}
}

func TestNilHandlerResponseBecomes500(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/nil", func(ctx *Ctx, req *Request) *Response { return nil })
	})
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		resp, err := c.Do(p, &Request{Method: "GET", Path: "/nil", Host: "server"})
		if err != nil {
			t.Error(err)
		} else if resp.Status != StatusInternalServerError {
			t.Errorf("status = %d, want 500", resp.Status)
		}
		c.CloseIdle()
		l.Close()
	})
	r.Run()
}

// CloseIdle while another process waits on the same conn for its
// response: the waiter sees the close, redials and gets its answer.
// The dropped conn is released only once no process is inside an
// exchange on the client; releasing it at once would clear the close
// the waiter has yet to read, and it would park forever.
func TestCloseIdleDuringExchange(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/slow", func(ctx *Ctx, req *Request) *Response {
			ctx.Proc.Sleep(1)
			return &Response{Status: StatusOK}
		})
	})
	c := NewClient(n, "client", 443, true)
	done := simproc.NewFuture[bool](r)
	r.Go("waiter", func(p *simproc.Proc) {
		req := &Request{Method: "GET", Path: "/slow", Host: "server"}
		resp, err := c.Do(p, req)
		if err != nil || resp.Status != StatusOK {
			t.Errorf("slow request: %v %v", resp, err)
		} else if !req.Resent() {
			t.Error("the request survived CloseIdle without a resend")
		}
		done.Set(true)
	})
	r.Go("closer", func(p *simproc.Proc) {
		p.Sleep(0.5)
		c.CloseIdle()
		simproc.Await(p, done)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
}
