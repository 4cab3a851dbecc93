package cloudsim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"detournet/internal/fluid"
	"detournet/internal/httpsim"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/transport"
)

func TestObjectStoreBasics(t *testing.T) {
	s := NewObjectStore(simclock.NewEngine())
	o, err := s.Put("a.bin", 100, "md5a")
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != "f-0" || o.Size != 100 {
		t.Fatalf("object = %+v", o)
	}
	if got, ok := s.Get("a.bin"); !ok || got != o {
		t.Fatal("Get failed")
	}
	if got, ok := s.GetByID("f-0"); !ok || got != o {
		t.Fatal("GetByID failed")
	}
	if s.Used() != 100 || s.Len() != 1 {
		t.Fatalf("Used=%v Len=%d", s.Used(), s.Len())
	}
	if !s.Delete("a.bin") {
		t.Fatal("Delete reported false")
	}
	if s.Delete("a.bin") {
		t.Fatal("double delete reported true")
	}
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatalf("after delete: Used=%v Len=%d", s.Used(), s.Len())
	}
}

func TestObjectStoreValidation(t *testing.T) {
	s := NewObjectStore(simclock.NewEngine())
	if _, err := s.Put("", 1, ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.Put("x", -1, ""); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestObjectStoreReplaceFreesOldBytes(t *testing.T) {
	s := NewObjectStore(simclock.NewEngine())
	s.Quota = 150
	if _, err := s.Put("a", 100, ""); err != nil {
		t.Fatal(err)
	}
	// Replacing a 100-byte object with 120 bytes fits a 150 quota.
	if _, err := s.Put("a", 120, ""); err != nil {
		t.Fatalf("replace within quota failed: %v", err)
	}
	if s.Used() != 120 {
		t.Fatalf("Used = %v", s.Used())
	}
	if _, err := s.Put("b", 100, ""); err == nil {
		t.Fatal("over-quota put accepted")
	}
	// Old ID is gone after replace.
	if _, ok := s.GetByID("f-0"); ok {
		t.Fatal("stale ID still resolves")
	}
}

func TestObjectStoreListSorted(t *testing.T) {
	s := NewObjectStore(simclock.NewEngine())
	for _, n := range []string{"c", "a", "b"} {
		if _, err := s.Put(n, 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{}
	for _, o := range s.List() {
		names = append(names, o.Name)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("List order = %v", names)
	}
}

func TestParseContentRange(t *testing.T) {
	lo, hi, total, err := parseContentRange("bytes 0-99/1000")
	if err != nil || lo != 0 || hi != 99 || total != 1000 {
		t.Fatalf("parse: %v %v %v %v", lo, hi, total, err)
	}
	_, _, total, err = parseContentRange("bytes 100-199/*")
	if err != nil || total != -1 {
		t.Fatalf("wildcard total: %v %v", total, err)
	}
	for _, bad := range []string{
		"", "bytes", "bytes 5-2/10", "bytes x-y/z", "octets 0-1/2",
		"bytes 0-NaN/100", "bytes 0-Inf/100", "bytes 0-99/100junk", "bytes 0-99/-5",
		"bytes 0.5-99/100", "bytes 0-99.5/100", "bytes 0-99/100.0", "bytes +0-99/100",
		"bytes 0-99/99", "bytes 0-99/50", "bytes 0-99", "bytes 0-99/", "bytes -1-99/100",
	} {
		if _, _, _, err := parseContentRange(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestRangeHeaderMatchesFormat(t *testing.T) {
	for _, received := range []float64{1, 2, 1.5, 2.5, 4194304, 1e8 + 0.5, 123456789} {
		if got, want := rangeHeader(received), fmt.Sprintf("bytes=0-%.0f", received-1); got != want {
			t.Fatalf("rangeHeader(%v) = %q, want %q", received, got, want)
		}
	}
}

func TestPropertyParseContentRangeRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		lo := float64(a % 1000000)
		span := float64(b%1000000) + 1
		hi := lo + span - 1
		total := hi + 1
		gotLo, gotHi, gotTotal, err := parseContentRange(
			"bytes " + fmtF(lo) + "-" + fmtF(hi) + "/" + fmtF(total))
		return err == nil && gotLo == lo && gotHi == hi && gotTotal == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fmtF(x float64) string { return fmt.Sprintf("%.0f", x) }

// protocol-level error-path tests via raw HTTP requests

type rig struct {
	eng *simclock.Engine
	r   *simproc.Runner
	tn  *transport.Net
	svc *Service
	tok string
}

func newRig(t *testing.T, style Style) *rig {
	t.Helper()
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	g.MustAddNode(&topology.Node{Name: "client", Kind: topology.Host, RespondsICMP: true})
	g.MustAddNode(&topology.Node{Name: "dc", Kind: topology.Host, RespondsICMP: true})
	g.MustConnect("client", "dc", topology.LinkSpec{CapacityBps: 10e6, DelaySec: 0.01})
	tn := transport.NewNet(g, r, tcpmodel.Params{})
	svc := NewService(eng, tn, style.String(), "dc", style)
	svc.Start(tn)
	return &rig{eng: eng, r: r, tn: tn, svc: svc}
}

func (rg *rig) do(t *testing.T, fn func(p *simproc.Proc, c *httpsim.Client, auth string)) {
	t.Helper()
	rt := rg.svc.Auth.RegisterClient("x", "y")
	done := false
	rg.r.Go("t", func(p *simproc.Proc) {
		c := httpsim.NewClient(rg.tn, "client", APIPort, true)
		// Fetch a token manually through the token endpoint.
		resp, err := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/oauth2/token", Host: "dc",
			Body: []byte("grant_type=refresh_token&client_id=x&client_secret=y&refresh_token=" + rt),
		})
		if err != nil || !resp.OK() {
			t.Errorf("token fetch: %v %v", resp, err)
			return
		}
		body := string(resp.Body)
		i := strings.Index(body, `"access_token":"`)
		tok := body[i+len(`"access_token":"`):]
		tok = tok[:strings.Index(tok, `"`)]
		fn(p, c, "Bearer "+tok)
		c.CloseIdle()
		done = true
	})
	rg.r.RunUntil(simclock.Time(1e6))
	if !done {
		t.Fatal("test proc did not finish")
	}
}

func TestGDriveOffsetMismatchRejected(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/upload/drive/v3/files?uploadType=resumable", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}},
			Body:   []byte(`{"name":"f","size":100}`),
		})
		loc := resp.Header.Get("Location")
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: loc, Host: "dc",
			Header:   httpsim.Header{{Key: "Authorization", Value: auth}, {Key: "Content-Range", Value: "bytes 50-99/100"}},
			BodySize: 50,
		})
		if resp.Status != httpsim.StatusConflict {
			t.Errorf("out-of-order chunk got %d, want 409", resp.Status)
		}
	})
}

func TestGDriveUnknownSession(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "PUT", Path: "/upload/drive/v3/sessions/sess-999", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}}, BodySize: 10,
		})
		if resp.Status != httpsim.StatusNotFound {
			t.Errorf("unknown session got %d", resp.Status)
		}
	})
}

func TestGDriveNonResumableRejected(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/upload/drive/v3/files?uploadType=media", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}},
			Body:   []byte(`{"name":"f"}`),
		})
		if resp.Status != httpsim.StatusBadRequest {
			t.Errorf("media upload got %d", resp.Status)
		}
	})
}

func TestDropboxMissingArgRejected(t *testing.T) {
	rg := newRig(t, Dropbox)
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/2/files/upload", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}}, BodySize: 100,
		})
		if resp.Status != httpsim.StatusBadRequest {
			t.Errorf("missing arg got %d", resp.Status)
		}
	})
}

func TestDropboxWrongOffsetRejected(t *testing.T) {
	rg := newRig(t, Dropbox)
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/2/files/upload_session/start", Host: "dc",
			Header:   httpsim.Header{{Key: "Authorization", Value: auth}, {Key: "Dropbox-API-Arg", Value: "{}"}},
			BodySize: 100,
		})
		body := string(resp.Body)
		i := strings.Index(body, `"session_id":"`)
		sid := body[i+len(`"session_id":"`):]
		sid = sid[:strings.Index(sid, `"`)]
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/2/files/upload_session/append_v2", Host: "dc",
			Header: httpsim.Header{
				{Key: "Authorization", Value: auth},
				{Key: "Dropbox-API-Arg", Value: `{"cursor":{"session_id":"` + sid + `","offset":999}}`},
			},
			BodySize: 100,
		})
		if resp.Status != httpsim.StatusConflict {
			t.Errorf("wrong offset got %d", resp.Status)
		}
	})
}

func TestOneDriveRequiresContentRange(t *testing.T) {
	rg := newRig(t, OneDrive)
	rg.do(t, func(p *simproc.Proc, c *httpsim.Client, auth string) {
		resp, _ := c.Do(p, &httpsim.Request{
			Method: "POST", Path: "/v1.0/drive/root:/f.bin:/createUploadSession", Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}},
		})
		body := string(resp.Body)
		i := strings.Index(body, `"uploadUrl":"`)
		u := body[i+len(`"uploadUrl":"`):]
		u = u[:strings.Index(u, `"`)]
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: u, Host: "dc",
			Header: httpsim.Header{{Key: "Authorization", Value: auth}}, BodySize: 100,
		})
		if resp.Status != httpsim.StatusBadRequest {
			t.Errorf("fragment without Content-Range got %d", resp.Status)
		}
		// Wildcard total also rejected.
		resp, _ = c.Do(p, &httpsim.Request{
			Method: "PUT", Path: u, Host: "dc",
			Header:   httpsim.Header{{Key: "Authorization", Value: auth}, {Key: "Content-Range", Value: "bytes 0-99/*"}},
			BodySize: 100,
		})
		if resp.Status != httpsim.StatusBadRequest {
			t.Errorf("wildcard total got %d", resp.Status)
		}
	})
}

func TestUnauthorizedWithoutToken(t *testing.T) {
	rg := newRig(t, GoogleDrive)
	done := false
	rg.r.Go("t", func(p *simproc.Proc) {
		c := httpsim.NewClient(rg.tn, "client", APIPort, true)
		resp, err := c.Do(p, &httpsim.Request{
			Method: "GET", Path: "/drive/v3/files", Host: "dc",
		})
		if err != nil {
			t.Error(err)
		} else if resp.Status != httpsim.StatusUnauthorized {
			t.Errorf("no-token request got %d", resp.Status)
		}
		c.CloseIdle()
		done = true
	})
	rg.r.RunUntil(simclock.Time(1e6))
	if !done {
		t.Fatal("did not finish")
	}
}

func TestStyleStringsAndChunks(t *testing.T) {
	if GoogleDrive.String() != "GoogleDrive" || Dropbox.String() != "Dropbox" || OneDrive.String() != "OneDrive" {
		t.Fatal("style names")
	}
	if GoogleDrive.DefaultChunkBytes() != 8<<20 || Dropbox.DefaultChunkBytes() != 4<<20 || OneDrive.DefaultChunkBytes() != 10<<20 {
		t.Fatal("chunk defaults")
	}
	if !strings.HasPrefix(Style(99).String(), "Style(") {
		t.Fatal("unknown style string")
	}
}
