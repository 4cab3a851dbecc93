package scenario

import (
	"slices"
	"strings"
	"testing"

	"detournet/internal/core"
	"detournet/internal/simproc"
	"detournet/internal/topology"
	"detournet/internal/traceroutex"
)

func TestBuildIsDeterministic(t *testing.T) {
	run := func() []float64 {
		w := Build(7)
		var out []float64
		client := w.NewSDKClient(UBC, GoogleDrive)
		w.RunWorkload("t", func(p *simproc.Proc) {
			for i := 0; i < 3; i++ {
				rep, err := core.DirectUpload(p, client, "f.bin", 10e6, "")
				if err != nil {
					t.Error(err)
					return
				}
				out = append(out, rep.Total)
			}
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestUBCTraceroutesMatchPaper(t *testing.T) {
	w := Build(1)
	// Fig 5: UBC -> Google Drive crosses vncv1rtr2 then PacificWave.
	res, err := traceroutex.Run(w.Graph, UBC, GDriveDC)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(hopNames(res), "vncv1rtr2.canarie.ca") {
		t.Fatalf("UBC trace misses canarie middlebox: %v", hopNames(res))
	}
	if !slices.Contains(hopNames(res), "google-1-lo-std-707.sttlwa.pacificwave.net") {
		t.Fatalf("UBC trace misses pacificwave: %v", hopNames(res))
	}
	if len(res.Hops) != 9 {
		t.Fatalf("UBC trace has %d hops, want 9 (Fig 5)", len(res.Hops))
	}

	// Fig 6: UAlberta -> Google Drive crosses the same canarie router but
	// NOT pacificwave; the peering hop is anonymous.
	res, err = traceroutex.Run(w.Graph, UAlberta, GDriveDC)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(hopNames(res), "vncv1rtr2.canarie.ca") {
		t.Fatalf("UAlberta trace misses canarie middlebox: %v", hopNames(res))
	}
	if slices.Contains(hopNames(res), "google-1-lo-std-707.sttlwa.pacificwave.net") {
		t.Fatalf("UAlberta trace wrongly crosses pacificwave: %v", hopNames(res))
	}
	names := hopNames(res)
	if len(names) != 13 {
		t.Fatalf("UAlberta trace has %d hops, want 13 (Fig 6): %v", len(names), names)
	}
	// Hops 2 and 10 are anonymous in the paper's Fig 6.
	if names[1] != "*" || names[9] != "*" {
		t.Fatalf("anonymous hops misplaced: %v", names)
	}
	out := res.Format()
	if !strings.Contains(out, "* * *") || !strings.Contains(out, "edmn1rtr2.canarie.ca (199.212.24.68)") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestPurdueRoutePins(t *testing.T) {
	w := Build(1)
	for _, dst := range []string{GDriveDC, OneDriveDC} {
		path, err := w.Graph.Path(Purdue, dst)
		if err != nil {
			t.Fatal(err)
		}
		names := strings.Join(topology.PathNames(path), ",")
		if !strings.Contains(names, "isp-west") {
			t.Fatalf("Purdue->%s not pinned to commodity ISP: %s", dst, names)
		}
	}
	// Dropbox (eastbound) is NOT pinned and uses research/transit paths.
	path, _ := w.Graph.Path(Purdue, DropboxDC)
	if strings.Contains(strings.Join(topology.PathNames(path), ","), "isp-west") {
		t.Fatal("Purdue->Dropbox should not cross the western ISP peering")
	}
}

// measure one upload over a route, on a fresh world per call so the
// background state is identical.
func timedUpload(t *testing.T, seed int64, from, provider string, route core.Route, size float64) float64 {
	t.Helper()
	w := Build(seed)
	var total float64
	w.RunWorkload("timed", func(p *simproc.Proc) {
		var rep core.Report
		var err error
		if route.Kind == core.Direct {
			rep, err = core.DirectUpload(p, w.NewSDKClient(from, provider), "f.bin", size, "")
		} else {
			rep, err = w.NewDetourClient(from, route.Via).Upload(p, provider, "f.bin", size, "")
		}
		if err != nil {
			t.Errorf("%s %s %v: %v", from, provider, route, err)
			return
		}
		total = rep.Total
	})
	return total
}

func TestUBCGoogleDriveCalibration(t *testing.T) {
	// Paper Table II @100MB: direct 86.92s, via UAlberta 35.79s, via
	// UMich 132.17s. Allow generous windows around the shape.
	size := 100e6
	direct := timedUpload(t, 11, UBC, GoogleDrive, core.DirectRoute, size)
	viaUAlb := timedUpload(t, 11, UBC, GoogleDrive, core.ViaRoute(UAlberta), size)
	viaUMich := timedUpload(t, 11, UBC, GoogleDrive, core.ViaRoute(UMich), size)
	t.Logf("UBC->GDrive 100MB: direct=%.1f viaUAlberta=%.1f viaUMich=%.1f", direct, viaUAlb, viaUMich)
	if direct < 70 || direct > 110 {
		t.Errorf("direct = %.1f, want ~87", direct)
	}
	if viaUAlb < 28 || viaUAlb > 50 {
		t.Errorf("via UAlberta = %.1f, want ~36", viaUAlb)
	}
	if viaUMich < 105 || viaUMich > 170 {
		t.Errorf("via UMich = %.1f, want ~132", viaUMich)
	}
	if !(viaUAlb < direct && direct < viaUMich) {
		t.Errorf("ordering broken: %v %v %v", viaUAlb, direct, viaUMich)
	}
}

func TestUBCDropboxDirectWins(t *testing.T) {
	size := 100e6
	direct := timedUpload(t, 12, UBC, Dropbox, core.DirectRoute, size)
	viaUAlb := timedUpload(t, 12, UBC, Dropbox, core.ViaRoute(UAlberta), size)
	viaUMich := timedUpload(t, 12, UBC, Dropbox, core.ViaRoute(UMich), size)
	t.Logf("UBC->Dropbox 100MB: direct=%.1f viaUAlberta=%.1f viaUMich=%.1f", direct, viaUAlb, viaUMich)
	if !(direct < viaUAlb && viaUAlb < viaUMich) {
		t.Errorf("Fig 4 ordering broken: direct=%v viaUAlb=%v viaUMich=%v", direct, viaUAlb, viaUMich)
	}
}

func TestUBCOneDriveDirectWins(t *testing.T) {
	size := 60e6
	direct := timedUpload(t, 13, UBC, OneDrive, core.DirectRoute, size)
	viaUAlb := timedUpload(t, 13, UBC, OneDrive, core.ViaRoute(UAlberta), size)
	if direct >= viaUAlb {
		t.Errorf("UBC->OneDrive direct %v should beat detour %v", direct, viaUAlb)
	}
}

func TestPurdueGoogleDriveDetoursWin(t *testing.T) {
	// Paper Table III: both detours ~70-84% faster than direct.
	size := 100e6
	direct := timedUpload(t, 14, Purdue, GoogleDrive, core.DirectRoute, size)
	viaUAlb := timedUpload(t, 14, Purdue, GoogleDrive, core.ViaRoute(UAlberta), size)
	viaUMich := timedUpload(t, 14, Purdue, GoogleDrive, core.ViaRoute(UMich), size)
	t.Logf("Purdue->GDrive 100MB: direct=%.1f viaUAlberta=%.1f viaUMich=%.1f", direct, viaUAlb, viaUMich)
	for name, v := range map[string]float64{"viaUAlberta": viaUAlb, "viaUMich": viaUMich} {
		gain := (direct - v) / direct
		if gain < 0.5 {
			t.Errorf("%s gain = %.0f%%, want >= 50%%", name, gain*100)
		}
	}
	// The two detours are comparable (within 2x of each other).
	if viaUAlb > 2*viaUMich || viaUMich > 2*viaUAlb {
		t.Errorf("detours not comparable: %v vs %v", viaUAlb, viaUMich)
	}
}

func TestPurdueDropboxDirectUsuallyBest(t *testing.T) {
	size := 100e6
	direct := timedUpload(t, 15, Purdue, Dropbox, core.DirectRoute, size)
	viaUAlb := timedUpload(t, 15, Purdue, Dropbox, core.ViaRoute(UAlberta), size)
	t.Logf("Purdue->Dropbox 100MB: direct=%.1f viaUAlberta=%.1f", direct, viaUAlb)
	if direct >= viaUAlb {
		t.Errorf("Table IV: direct mean (%v) should beat via-UAlberta mean (%v) at 100MB", direct, viaUAlb)
	}
}

func TestPurdueOneDriveDetourWinsAtLargeSizes(t *testing.T) {
	direct := timedUpload(t, 16, Purdue, OneDrive, core.DirectRoute, 100e6)
	viaUAlb := timedUpload(t, 16, Purdue, OneDrive, core.ViaRoute(UAlberta), 100e6)
	t.Logf("Purdue->OneDrive 100MB: direct=%.1f viaUAlberta=%.1f", direct, viaUAlb)
	if viaUAlb >= direct {
		t.Errorf("Fig 9 @100MB: detour (%v) should beat direct (%v)", viaUAlb, direct)
	}
}

func TestUCLAEverythingSlowDetoursUseless(t *testing.T) {
	size := 60e6
	direct := timedUpload(t, 17, UCLA, GoogleDrive, core.DirectRoute, size)
	viaUAlb := timedUpload(t, 17, UCLA, GoogleDrive, core.ViaRoute(UAlberta), size)
	viaUMich := timedUpload(t, 17, UCLA, GoogleDrive, core.ViaRoute(UMich), size)
	t.Logf("UCLA->GDrive 60MB: direct=%.1f viaUAlberta=%.1f viaUMich=%.1f", direct, viaUAlb, viaUMich)
	// Last-mile bound: direct takes ~60/0.39 ≈ 154s.
	if direct < 100 {
		t.Errorf("UCLA direct = %v, should be last-mile bound (>100s)", direct)
	}
	if viaUAlb < direct || viaUMich < direct {
		t.Errorf("detours should not help from UCLA: %v %v vs %v", viaUAlb, viaUMich, direct)
	}
}

func TestDetourHopBreakdownMatchesPaperExample(t *testing.T) {
	// The paper's intro example: 100MB UBC->UAlberta ≈ 19s, UAlberta->
	// Google ≈ 17s, total ≈ 36s.
	w := Build(18)
	var rep core.Report
	w.RunWorkload("t", func(p *simproc.Proc) {
		var err error
		rep, err = w.NewDetourClient(UBC, UAlberta).Upload(p, GoogleDrive, "f.bin", 100e6, "")
		if err != nil {
			t.Error(err)
		}
	})
	t.Logf("hop1=%.1f hop2=%.1f total=%.1f", rep.Hop1, rep.Hop2, rep.Total)
	if rep.Hop1 < 15 || rep.Hop1 > 26 {
		t.Errorf("hop1 = %.1f, want ~19", rep.Hop1)
	}
	if rep.Hop2 < 13 || rep.Hop2 > 24 {
		t.Errorf("hop2 = %.1f, want ~17", rep.Hop2)
	}
}

func TestSequentialWorkloadsShareClock(t *testing.T) {
	w := Build(19)
	var t1, t2 float64
	w.RunWorkload("a", func(p *simproc.Proc) { p.Sleep(5); t1 = float64(p.Now()) })
	w.RunWorkload("b", func(p *simproc.Proc) { p.Sleep(5); t2 = float64(p.Now()) })
	if t2 <= t1 {
		t.Fatalf("clock did not advance across workloads: %v %v", t1, t2)
	}
}

func TestAgentsServeAllProviders(t *testing.T) {
	w := Build(20)
	w.RunWorkload("relay", func(p *simproc.Proc) {
		for _, dtn := range DTNs {
			for _, prov := range ProviderNames {
				if _, err := w.NewDetourClient(UBC, dtn).Upload(p, prov, "f.bin", 1e6, ""); err != nil {
					t.Errorf("relay via %s to %s: %v", dtn, prov, err)
				}
			}
		}
	})
}

func BenchmarkBuildWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Build(int64(i))
	}
}

func BenchmarkDirectUpload100MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := Build(11)
		client := w.NewSDKClient(UBC, GoogleDrive)
		w.RunWorkload("bench", func(p *simproc.Proc) {
			if _, err := core.DirectUpload(p, client, "f.bin", 100e6, ""); err != nil {
				b.Error(err)
			}
		})
	}
}

func BenchmarkDetourUpload100MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := Build(11)
		w.RunWorkload("bench", func(p *simproc.Proc) {
			dc := w.NewDetourClient(UBC, UAlberta)
			if _, err := dc.Upload(p, GoogleDrive, "f.bin", 100e6, ""); err != nil {
				b.Error(err)
			}
		})
	}
}

func TestTraceRecordsDetourEvents(t *testing.T) {
	w := Build(21)
	w.RunWorkload("trace", func(p *simproc.Proc) {
		dc := w.NewDetourClient(UBC, UAlberta)
		if _, err := dc.Upload(p, GoogleDrive, "f.bin", 10e6, ""); err != nil {
			t.Error(err)
		}
	})
	ups := w.Trace.Filter("detour.upload")
	if len(ups) != 1 {
		t.Fatalf("detour.upload events = %d", len(ups))
	}
	attrs := ups[0].Attrs
	if attrs["via"] != UAlberta || attrs["provider"] != GoogleDrive {
		t.Fatalf("attrs = %v", attrs)
	}
	if attrs["total"].(float64) <= 0 {
		t.Fatalf("total attr = %v", attrs["total"])
	}
	if len(w.Trace.Filter("agent.relay")) != 1 {
		t.Fatalf("agent events = %d", len(w.Trace.Filter("agent.relay")))
	}
}

func TestGoogleVancouverPOPFixesUBCArtifact(t *testing.T) {
	// The paper's "providers may add POPs" remedy: with a Google POP on
	// the Vancouver exchange, UBC's direct-to-POP upload beats both the
	// pinned direct path and the UAlberta detour.
	w := Build(81, WithGoogleVancouverPOP())
	w.StartGooglePOP()
	var direct, detour, viaPOP float64
	w.RunWorkload("pop", func(p *simproc.Proc) {
		c := w.NewSDKClient(UBC, GoogleDrive)
		rep, err := core.DirectUpload(p, c, "a.bin", 100e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		direct = rep.Total
		c.Close()
		rep, err = w.NewDetourClient(UBC, UAlberta).Upload(p, GoogleDrive, "b.bin", 100e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		detour = rep.Total
		pc := w.NewSDKClientVia(UBC, GooglePOPVancouver)
		rep, err = core.DirectUpload(p, pc, "c.bin", 100e6, "")
		if err != nil {
			t.Error(err)
			return
		}
		viaPOP = rep.Total
		pc.Close()
	})
	t.Logf("UBC->GDrive 100MB: direct=%.1f detour=%.1f viaPOP=%.1f", direct, detour, viaPOP)
	if !(viaPOP < detour && detour < direct) {
		t.Fatalf("want POP < detour < direct, got %.1f %.1f %.1f", viaPOP, detour, direct)
	}
	if o, ok := w.Services[GoogleDrive].Store.Get("c.bin"); !ok || o.Size != 100e6 {
		t.Fatalf("POP upload not stored at DC: %+v %v", o, ok)
	}
}

func TestPOPRequiresOption(t *testing.T) {
	w := Build(82)
	defer func() {
		if recover() == nil {
			t.Fatal("StartGooglePOP without the option did not panic")
		}
	}()
	w.StartGooglePOP()
}

// hopNames returns a trace's hop hostnames in order, "*" for a hidden
// hop.
func hopNames(r *traceroutex.Result) []string {
	out := make([]string, len(r.Hops))
	for i, h := range r.Hops {
		out[i] = "*"
		if !h.Hidden {
			out[i] = h.Node.Hostname
		}
	}
	return out
}
