package httpsim

import (
	"errors"
	"strings"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

func world(t *testing.T) (*transport.Net, *simproc.Runner) {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	for _, n := range []string{"client", "server"} {
		g.MustAddNode(&topology.Node{Name: n, Kind: topology.Host, RespondsICMP: true})
	}
	g.MustConnect("client", "server", topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.020})
	return transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20}), r
}

func startServer(t *testing.T, n *transport.Net, setup func(*Server)) *transport.Listener {
	t.Helper()
	s := NewServer(n)
	setup(s)
	l := n.MustListen("server", 443)
	s.Serve(l)
	return l
}

func TestBasicRoundTrip(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/hello", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusOK, Body: []byte("hi " + ctx.RemoteHost)}
		})
	})
	var got string
	var status int
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		resp, err := c.Do(p, &Request{Method: "GET", Path: "/hello", Host: "server"})
		if err != nil {
			t.Error(err)
			return
		}
		status = resp.Status
		got = string(resp.Body)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	if status != StatusOK || got != "hi client" {
		t.Fatalf("status=%d body=%q", status, got)
	}
}

func TestRouting(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("POST", "/upload/session", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusCreated, Body: []byte("session")}
		})
		s.Handle("POST", "/upload", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusOK, Body: []byte("upload")}
		})
		s.Handle("*", "/", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusOK, Body: []byte("fallback")}
		})
	})
	var bodies []string
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		for _, pq := range []struct{ m, path string }{
			{"POST", "/upload/session"}, // longest prefix
			{"POST", "/upload/x"},
			{"DELETE", "/anything"},
			{"GET", "/upload"}, // method mismatch on /upload -> fallback
		} {
			resp, err := c.Do(p, &Request{Method: pq.m, Path: pq.path, Host: "server"})
			if err != nil {
				t.Error(err)
				return
			}
			bodies = append(bodies, string(resp.Body))
		}
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	want := "session,upload,fallback,fallback"
	if got := strings.Join(bodies, ","); got != want {
		t.Fatalf("bodies = %s, want %s", got, want)
	}
}

func TestNotFound(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/only", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusOK}
		})
	})
	var status int
	var errStr string
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		resp, err := c.Do(p, &Request{Method: "GET", Path: "/nope", Host: "server"})
		if err != nil {
			t.Error(err)
			return
		}
		status = resp.Status
		if e := resp.Error(); e != nil {
			errStr = e.Error()
		}
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	if status != StatusNotFound {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(errStr, "404") {
		t.Fatalf("Error() = %q", errStr)
	}
}

func TestKeepAliveReusesConnection(t *testing.T) {
	// Second request must be much faster than the first (no handshake,
	// ramped window).
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("GET", "/", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusOK, BodySize: 500}
		})
	})
	var first, second float64
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		t0 := p.Now()
		if _, err := c.Do(p, &Request{Method: "GET", Path: "/", Host: "server"}); err != nil {
			t.Error(err)
		}
		first = float64(p.Now() - t0)
		t0 = p.Now()
		if _, err := c.Do(p, &Request{Method: "GET", Path: "/", Host: "server"}); err != nil {
			t.Error(err)
		}
		second = float64(p.Now() - t0)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	// First pays 3 RTTs of handshake (TLS); second only the exchange.
	if second >= first*0.7 {
		t.Fatalf("keep-alive not reused: first=%v second=%v", first, second)
	}
}

func TestRequestSizeAccounting(t *testing.T) {
	req := &Request{Method: "PUT", Path: "/f", Host: "h", BodySize: 1000}
	if req.Size() <= 1000 || req.Size() > 1500 {
		t.Fatalf("Size = %v", req.Size())
	}
	req2 := &Request{Method: "PUT", Path: "/f", Host: "h", Body: make([]byte, 1000)}
	if req2.ContentLength() != 1000 {
		t.Fatalf("ContentLength = %v", req2.ContentLength())
	}
	req3 := &Request{Method: "GET", Path: "/f", Host: "h", Header: Header{{Key: "Authorization", Value: "Bearer tok"}}}
	if req3.Size() <= req.Size()-1000 {
		t.Fatalf("headers not counted: %v", req3.Size())
	}
	resp := &Response{Status: 200, BodySize: 2000}
	if resp.Size() <= 2000 {
		t.Fatalf("response Size = %v", resp.Size())
	}
}

// Header keeps one field per key: Set replaces, so Size counts every
// key once, as the map it replaced did.
func TestHeaderSetReplaces(t *testing.T) {
	var h Header
	if _, ok := h.Value("A"); ok || h.Get("A") != "" {
		t.Fatal("empty header has a value")
	}
	h.Set("A", "1")
	h.Set("Bee", "22")
	h.Set("A", "333")
	if v, ok := h.Value("A"); !ok || v != "333" || h.Get("Bee") != "22" || len(h) != 2 {
		t.Fatalf("header %v", h)
	}
	req := &Request{Method: "GET", Path: "/", Host: "h", Header: h}
	bare := &Request{Method: "GET", Path: "/", Host: "h"}
	if got, want := req.Size()-bare.Size(), float64(len("A")+len("333")+4+len("Bee")+len("22")+4); got != want {
		t.Fatalf("header bytes %v, want %v", got, want)
	}
}

// Retry-After is read as finite, non-negative seconds; anything else
// reads as no hint.
func TestRetryAfterParse(t *testing.T) {
	for v, want := range map[string]float64{
		"1.000": 1, "0.250": 0.25, "7": 7, "0": 0,
		"NaN": 0, "Inf": 0, "+Inf": 0, "-5": 0, "2s": 0, "": 0,
	} {
		resp := &Response{Status: StatusTooManyRequests, Header: Header{{Key: "Retry-After", Value: v}}}
		var se *StatusError
		if !errors.As(resp.Error(), &se) || se.RetryAfter != want {
			t.Errorf("Retry-After %q: got %+v, want %v", v, se, want)
		}
	}
}

func TestServerProcessingDelayCharged(t *testing.T) {
	n, r := world(t)
	s := NewServer(n)
	s.ProcessingDelay = 0.5
	s.Handle("GET", "/", func(ctx *Ctx, req *Request) *Response {
		return &Response{Status: StatusOK}
	})
	l := n.MustListen("server", 443)
	s.Serve(l)
	var dur float64
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		t0 := p.Now()
		_, _ = c.Do(p, &Request{Method: "GET", Path: "/", Host: "server"})
		dur = float64(p.Now() - t0)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	if dur < 0.5 {
		t.Fatalf("processing delay not charged: %v", dur)
	}
}

func TestHandlerCanSleep(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("POST", "/slow", func(ctx *Ctx, req *Request) *Response {
			ctx.Proc.Sleep(1.0) // model storage backend commit
			return &Response{Status: StatusCreated}
		})
	})
	var dur float64
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		t0 := p.Now()
		_, _ = c.Do(p, &Request{Method: "POST", Path: "/slow", Host: "server"})
		dur = float64(p.Now() - t0)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	if dur < 1.0 {
		t.Fatalf("handler sleep not observed: %v", dur)
	}
}

func TestLargeUploadDominatedByBandwidth(t *testing.T) {
	n, r := world(t)
	l := startServer(t, n, func(s *Server) {
		s.Handle("PUT", "/blob", func(ctx *Ctx, req *Request) *Response {
			return &Response{Status: StatusCreated}
		})
	})
	var dur float64
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		t0 := p.Now()
		resp, err := c.Do(p, &Request{Method: "PUT", Path: "/blob", Host: "server", BodySize: 50e6})
		if err != nil || !resp.OK() {
			t.Errorf("upload failed: %v %v", resp, err)
		}
		dur = float64(p.Now() - t0)
		c.CloseIdle()
		l.Close()
	})
	r.Run()
	// ~51.5MB wire at 10MB/s ≈ 5.15s + handshakes.
	if dur < 5 || dur > 7 {
		t.Fatalf("50MB upload took %v, want ~5.2-6s", dur)
	}
}

func TestMissingHostRejected(t *testing.T) {
	n, r := world(t)
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		if _, err := c.Do(p, &Request{Method: "GET", Path: "/"}); err == nil {
			t.Error("request without host accepted")
		}
	})
	r.Run()
}

func TestDialFailureSurfaces(t *testing.T) {
	n, r := world(t)
	r.Go("cli", func(p *simproc.Proc) {
		c := NewClient(n, "client", 443, true)
		if _, err := c.Do(p, &Request{Method: "GET", Path: "/", Host: "server"}); err == nil {
			t.Error("request to non-listening host succeeded")
		}
	})
	r.Run()
}
