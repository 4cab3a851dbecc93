package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	// Vancouver to Edmonton is roughly 820 km.
	d := HaversineKm(UBC.Coord, UAlberta.Coord)
	if d < 750 || d > 900 {
		t.Fatalf("UBC-UAlberta = %.0f km, want ~820", d)
	}
	// Vancouver to Mountain View is roughly 1300 km.
	d = HaversineKm(UBC.Coord, GoogleDriveDC.Coord)
	if d < 1200 || d > 1450 {
		t.Fatalf("UBC-MountainView = %.0f km, want ~1300", d)
	}
	// Zero distance.
	if d := HaversineKm(UMich.Coord, UMich.Coord); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestGeographicBacktrackingOfUAlbertaDetour(t *testing.T) {
	// The paper's Fig 3 point: UBC->UAlberta->MountainView is a large
	// geographic detour versus UBC->MountainView.
	direct := HaversineKm(UBC.Coord, GoogleDriveDC.Coord)
	viaUAlb := HaversineKm(UBC.Coord, UAlberta.Coord) + HaversineKm(UAlberta.Coord, GoogleDriveDC.Coord)
	if viaUAlb < 1.5*direct {
		t.Fatalf("detour distance %.0f should be >1.5x direct %.0f", viaUAlb, direct)
	}
}

func TestPropagationDelayOrderOfMagnitude(t *testing.T) {
	// Cross-continent (~4000 km) should be tens of ms one-way.
	d := PropagationDelay(UBC.Coord, DropboxDC.Coord)
	if d < 0.015 || d > 0.050 {
		t.Fatalf("UBC-Ashburn propagation = %v s, want 15-50 ms", d)
	}
}

func TestPropertyHaversineMetric(t *testing.T) {
	clampCoord := func(lat, lon float64) Coord {
		if math.IsNaN(lat) || math.IsInf(lat, 0) {
			lat = 0
		}
		if math.IsNaN(lon) || math.IsInf(lon, 0) {
			lon = 0
		}
		return Coord{Lat: math.Mod(lat, 89), Lon: math.Mod(lon, 179)}
	}
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := clampCoord(lat1, lon1)
		b := clampCoord(lat2, lon2)
		dab := HaversineKm(a, b)
		dba := HaversineKm(b, a)
		// symmetry, non-negativity, bounded by half circumference
		return dab >= 0 && math.Abs(dab-dba) < 1e-6 && dab <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTriangleInequalityGeo(t *testing.T) {
	// Great-circle distance satisfies the triangle inequality (unlike the
	// Internet's throughput "distance", which is the paper's point).
	sites := []Site{
		UBC, UAlberta, UMich, Purdue, UCLA,
		GoogleDriveDC, DropboxDC, OneDriveDC, VancouverIX, SeattleIX,
	}
	for _, a := range sites {
		for _, b := range sites {
			for _, c := range sites {
				if HaversineKm(a.Coord, c.Coord) > HaversineKm(a.Coord, b.Coord)+HaversineKm(b.Coord, c.Coord)+1e-6 {
					t.Fatalf("triangle inequality violated for %s-%s-%s", a.Name, b.Name, c.Name)
				}
			}
		}
	}
}

func TestDBLongestPrefixMatch(t *testing.T) {
	d := NewDB()
	d.MustAdd("10.0.0.0/8", UMich)
	d.MustAdd("10.1.0.0/16", Purdue)
	if s, ok := d.Lookup("10.1.2.3"); !ok || s.Name != "Purdue" {
		t.Fatalf("LPM failed: %+v %v", s, ok)
	}
	if s, ok := d.Lookup("10.2.2.3"); !ok || s.Name != "UMich" {
		t.Fatalf("fallback to /8 failed: %+v %v", s, ok)
	}
	if _, ok := d.Lookup("11.0.0.1"); ok {
		t.Fatal("address outside all prefixes resolved")
	}
	if _, ok := d.Lookup("not-an-ip"); ok {
		t.Fatal("garbage input resolved")
	}
}

func TestDBAddErrors(t *testing.T) {
	d := NewDB()
	if err := d.Add("300.0.0.0/8", UBC); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if len(d.entries) != 0 {
		t.Fatal("failed Add registered a prefix")
	}
}

func TestPaperDBGeolocatesTracerouteHops(t *testing.T) {
	d := PaperDB()
	cases := []struct {
		ip   string
		site string
	}{
		{"142.103.2.253", "UBC"},          // Fig 5 hop 1
		{"199.212.24.1", "Vancouver-IX"},  // vncv1rtr2.canarie.ca
		{"207.231.242.20", "Seattle-IX"},  // pacificwave
		{"216.58.216.138", "GoogleDrive"}, // googleapis
		{"129.128.184.254", "UAlberta"},   // Fig 6 hop 1
		{"199.116.233.66", "UAlberta"},    // cybera
	}
	for _, c := range cases {
		s, ok := d.Lookup(c.ip)
		if !ok || s.Name != c.site {
			t.Fatalf("Lookup(%s) = %+v %v, want %s", c.ip, s, ok, c.site)
		}
	}
}

func TestPaperDBMoreSpecificBeatsCanarieBlock(t *testing.T) {
	d := PaperDB()
	// 199.212.24.68 (edmn1rtr2) is inside 199.212.24.0/24 (Vancouver) but
	// has a /32 at Edmonton.
	s, ok := d.Lookup("199.212.24.68")
	if !ok || s.Name != "UAlberta" {
		t.Fatalf("edmn1 lookup = %+v %v, want UAlberta", s, ok)
	}
}
