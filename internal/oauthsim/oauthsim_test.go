package oauthsim

import (
	"net/url"
	"strings"
	"testing"

	"detournet/internal/fluid"
	"detournet/internal/httpsim"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

type fixture struct {
	eng  *simclock.Engine
	r    *simproc.Runner
	tn   *transport.Net
	auth *AuthServer
	l    *transport.Listener
}

func setup(t *testing.T) *fixture {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	g.MustAddNode(&topology.Node{Name: "client", Kind: topology.Host, RespondsICMP: true})
	g.MustAddNode(&topology.Node{Name: "api", Kind: topology.Host, RespondsICMP: true})
	g.MustConnect("client", "api", topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.020})
	tn := transport.NewNet(g, r, tcpmodel.Params{})
	auth := NewAuthServer(eng)
	srv := httpsim.NewServer(tn)
	auth.Mount(srv)
	srv.Handle("GET", "/private", auth.Protect(func(ctx *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
		return &httpsim.Response{Status: httpsim.StatusOK, Body: []byte("secret")}
	}))
	l := tn.MustListen("api", 443)
	srv.Serve(l)
	return &fixture{eng: eng, r: r, tn: tn, auth: auth, l: l}
}

func (f *fixture) run(t *testing.T, fn func(p *simproc.Proc, c *httpsim.Client, ts *TokenSource)) {
	t.Helper()
	rt := f.auth.RegisterClient("app", "s3cret")
	f.r.Go("test", func(p *simproc.Proc) {
		c := httpsim.NewClient(f.tn, "client", 443, true)
		ts := NewTokenSource(f.eng, c, "api", "app", "s3cret", rt)
		fn(p, c, ts)
		c.CloseIdle()
		f.l.Close()
	})
	f.r.Run()
}

func TestTokenFetchAndUse(t *testing.T) {
	f := setup(t)
	f.run(t, func(p *simproc.Proc, c *httpsim.Client, ts *TokenSource) {
		hdr, err := ts.AuthHeader(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(hdr, "Bearer at-") {
			t.Fatalf("header = %q", hdr)
		}
		resp, err := c.Do(p, &httpsim.Request{Method: "GET", Path: "/private", Host: "api",
			Header: httpsim.Header{{Key: "Authorization", Value: hdr}}})
		if err != nil || resp.Status != httpsim.StatusOK {
			t.Fatalf("protected call: %v %v", resp, err)
		}
	})
}

func TestTokenCached(t *testing.T) {
	f := setup(t)
	f.run(t, func(p *simproc.Proc, c *httpsim.Client, ts *TokenSource) {
		t1, _ := ts.Token(p)
		t2, _ := ts.Token(p)
		if t1 != t2 {
			t.Fatalf("token not cached: %q vs %q", t1, t2)
		}
		if ts.Fetches != 1 {
			t.Fatalf("Fetches = %d, want 1", ts.Fetches)
		}
	})
}

func TestTokenRefreshAfterExpiry(t *testing.T) {
	f := setup(t)
	f.auth.TTL = 100
	f.run(t, func(p *simproc.Proc, c *httpsim.Client, ts *TokenSource) {
		t1, _ := ts.Token(p)
		p.Sleep(200)
		t2, err := ts.Token(p)
		if err != nil {
			t.Fatal(err)
		}
		if t1 == t2 {
			t.Fatal("expired token not refreshed")
		}
		if ts.Fetches != 2 {
			t.Fatalf("Fetches = %d, want 2", ts.Fetches)
		}
	})
}

func TestExpiredTokenRejectedServerSide(t *testing.T) {
	f := setup(t)
	f.auth.TTL = 50
	f.run(t, func(p *simproc.Proc, c *httpsim.Client, ts *TokenSource) {
		hdr, _ := ts.AuthHeader(p)
		p.Sleep(100)
		resp, err := c.Do(p, &httpsim.Request{Method: "GET", Path: "/private", Host: "api",
			Header: httpsim.Header{{Key: "Authorization", Value: hdr}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != httpsim.StatusUnauthorized {
			t.Fatalf("stale token got status %d", resp.Status)
		}
	})
}

func TestBadCredentials(t *testing.T) {
	f := setup(t)
	f.auth.RegisterClient("app", "s3cret")
	f.r.Go("test", func(p *simproc.Proc) {
		c := httpsim.NewClient(f.tn, "client", 443, true)
		defer func() { c.CloseIdle(); f.l.Close() }()
		// Wrong secret.
		ts := NewTokenSource(f.eng, c, "api", "app", "wrong", "rt-app-0")
		if _, err := ts.Token(p); err == nil || !strings.Contains(err.Error(), "invalid_client") {
			t.Errorf("wrong secret: %v", err)
		}
		// Wrong refresh token.
		ts2 := NewTokenSource(f.eng, c, "api", "app", "s3cret", "bogus")
		if _, err := ts2.Token(p); err == nil || !strings.Contains(err.Error(), "invalid_grant") {
			t.Errorf("bogus refresh token: %v", err)
		}
	})
	f.r.Run()
}

func TestValidateRejectsGarbage(t *testing.T) {
	f := setup(t)
	if _, err := f.auth.Validate("Basic dXNlcg=="); err == nil {
		t.Fatal("non-bearer accepted")
	}
	if _, err := f.auth.Validate("Bearer nonexistent"); err == nil {
		t.Fatal("unknown token accepted")
	}
	f.l.Close()
	f.r.Run()
}

func TestMissingAuthHeaderRejected(t *testing.T) {
	f := setup(t)
	f.r.Go("test", func(p *simproc.Proc) {
		c := httpsim.NewClient(f.tn, "client", 443, true)
		resp, err := c.Do(p, &httpsim.Request{Method: "GET", Path: "/private", Host: "api"})
		if err != nil {
			t.Error(err)
		} else if resp.Status != httpsim.StatusUnauthorized {
			t.Errorf("status = %d", resp.Status)
		}
		c.CloseIdle()
		f.l.Close()
	})
	f.r.Run()
}

func TestUnsupportedGrantType(t *testing.T) {
	f := setup(t)
	f.r.Go("test", func(p *simproc.Proc) {
		c := httpsim.NewClient(f.tn, "client", 443, true)
		resp, err := c.Do(p, &httpsim.Request{Method: "POST", Path: TokenPath, Host: "api",
			Body: []byte("grant_type=password&username=u&password=p")})
		if err != nil {
			t.Error(err)
		} else if resp.Status != httpsim.StatusBadRequest || !strings.Contains(string(resp.Body), "unsupported_grant_type") {
			t.Errorf("resp = %d %s", resp.Status, resp.Body)
		}
		c.CloseIdle()
		f.l.Close()
	})
	f.r.Run()
}

func TestTokensAreUniqueAndIsolated(t *testing.T) {
	f := setup(t)
	rt1 := f.auth.RegisterClient("app1", "s1")
	rt2 := f.auth.RegisterClient("app2", "s2")
	f.r.Go("test", func(p *simproc.Proc) {
		defer f.l.Close()
		c := httpsim.NewClient(f.tn, "client", 443, true)
		defer c.CloseIdle()
		ts1 := NewTokenSource(f.eng, c, "api", "app1", "s1", rt1)
		ts2 := NewTokenSource(f.eng, c, "api", "app2", "s2", rt2)
		t1, err := ts1.Token(p)
		if err != nil {
			t.Error(err)
			return
		}
		t2, err := ts2.Token(p)
		if err != nil {
			t.Error(err)
			return
		}
		if t1 == t2 {
			t.Error("two clients issued the same token")
		}
		// Each token validates to its own client id.
		if id, _ := f.auth.Validate("Bearer " + t1); id != "app1" {
			t.Errorf("t1 validates to %q", id)
		}
		if id, _ := f.auth.Validate("Bearer " + t2); id != "app2" {
			t.Errorf("t2 validates to %q", id)
		}
		// A second refresh token for the same client also works.
		rt1b := f.auth.RegisterClient("app1", "s1")
		ts1b := NewTokenSource(f.eng, c, "api", "app1", "s1", rt1b)
		if _, err := ts1b.Token(p); err != nil {
			t.Errorf("second refresh token rejected: %v", err)
		}
	})
	f.r.Run()
}

func TestSkewTriggersEarlyRefresh(t *testing.T) {
	f := setup(t)
	f.auth.TTL = 100
	f.run(t, func(p *simproc.Proc, c *httpsim.Client, ts *TokenSource) {
		ts.Skew = 50
		t1, _ := ts.Token(p)
		p.Sleep(60) // within TTL but inside the skew window
		t2, _ := ts.Token(p)
		if t1 == t2 {
			t.Error("token not refreshed inside skew window")
		}
	})
}

// The refresh form is byte for byte what url.Values.Encode writes, for
// credentials that need escaping too: its length is wire size.
func TestRefreshFormMatchesEncode(t *testing.T) {
	for _, c := range [][3]string{
		{"dtn-ubc", "s3cret", "rt-dtn-ubc-0"},
		{"a b&c=d", "ü/é?#%", "rt+1;\x00\xff"},
		{"", "", ""},
	} {
		want := url.Values{
			"grant_type":    {"refresh_token"},
			"client_id":     {c[0]},
			"client_secret": {c[1]},
			"refresh_token": {c[2]},
		}.Encode()
		if got := string(refreshForm(c[0], c[1], c[2])); got != want {
			t.Errorf("%q: form %q, url.Values %q", c, got, want)
		}
	}
}
