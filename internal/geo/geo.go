// Package geo models the geographic layer of the case study: site
// coordinates, great-circle distances, and a synthetic IP-geolocation
// database standing in for the "IP Location Finder" service the paper
// used to place routers and datacenters on the map (Fig 3, Table V).
package geo

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
)

// Coord is a point on the globe in decimal degrees.
type Coord struct {
	Lat, Lon float64
}

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0

// HaversineKm returns the great-circle distance between two coordinates
// in kilometres.
func HaversineKm(a, b Coord) float64 {
	const rad = math.Pi / 180
	lat1, lon1 := a.Lat*rad, a.Lon*rad
	lat2, lon2 := b.Lat*rad, b.Lon*rad
	dlat := lat2 - lat1
	dlon := lon2 - lon1
	h := math.Sin(dlat/2)*math.Sin(dlat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dlon/2)*math.Sin(dlon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PropagationDelay returns an estimated one-way propagation delay in
// seconds for a fibre path between two coordinates. Light in fibre
// travels at roughly 2/3 c, and real paths are longer than great-circle
// distance; the 1.4 route-stretch factor is a standard engineering rule.
func PropagationDelay(a, b Coord) float64 {
	const fibreKmPerSec = 200000.0 // ~2/3 speed of light
	const routeStretch = 1.4
	return HaversineKm(a, b) * routeStretch / fibreKmPerSec
}

// Site is a named location from the paper's Fig 3 map.
type Site struct {
	Name string
	City string
	Coord
}

// The paper's client sites, intermediate nodes, and provider datacenters
// (Sec II: datacenter locations obtained via traceroute + IP geolocation).
var (
	UBC      = Site{Name: "UBC", City: "Vancouver, BC", Coord: Coord{49.2606, -123.2460}}
	UAlberta = Site{Name: "UAlberta", City: "Edmonton, AB", Coord: Coord{53.5232, -113.5263}}
	UMich    = Site{Name: "UMich", City: "Ann Arbor, MI", Coord: Coord{42.2780, -83.7382}}
	Purdue   = Site{Name: "Purdue", City: "West Lafayette, IN", Coord: Coord{40.4237, -86.9212}}
	UCLA     = Site{Name: "UCLA", City: "Los Angeles, CA", Coord: Coord{34.0689, -118.4452}}

	GoogleDriveDC = Site{Name: "GoogleDrive", City: "Mountain View, CA", Coord: Coord{37.4220, -122.0841}}
	DropboxDC     = Site{Name: "Dropbox", City: "Ashburn, VA", Coord: Coord{39.0438, -77.4874}}
	OneDriveDC    = Site{Name: "OneDrive", City: "Seattle, WA", Coord: Coord{47.6062, -122.3321}}

	// Network exchange/middlebox locations referenced by the traceroutes.
	VancouverIX = Site{Name: "Vancouver-IX", City: "Vancouver, BC", Coord: Coord{49.2827, -123.1207}}
	SeattleIX   = Site{Name: "Seattle-IX", City: "Seattle, WA", Coord: Coord{47.6097, -122.3331}}
	Chicago     = Site{Name: "Chicago", City: "Chicago, IL", Coord: Coord{41.8781, -87.6298}}
	Calgary     = Site{Name: "Calgary", City: "Calgary, AB", Coord: Coord{51.0447, -114.0719}}
)

// Sites lists every named site, for map rendering and lookups.
func Sites() []Site {
	return []Site{
		UBC, UAlberta, UMich, Purdue, UCLA,
		GoogleDriveDC, DropboxDC, OneDriveDC,
		VancouverIX, SeattleIX, Chicago, Calgary,
	}
}

// DB is a prefix-based IP geolocation database, the stand-in for the
// iplocation.net lookups in the paper. Longest-prefix match wins.
type DB struct {
	entries []dbEntry // sorted by prefix bits descending for LPM
}

type dbEntry struct {
	prefix netip.Prefix
	site   Site
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{} }

// Add registers a prefix as located at site. Invalid prefixes are
// rejected with an error.
func (d *DB) Add(cidr string, site Site) error {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return fmt.Errorf("geo: bad prefix %q: %w", cidr, err)
	}
	d.entries = append(d.entries, dbEntry{prefix: p.Masked(), site: site})
	sort.SliceStable(d.entries, func(i, j int) bool {
		return d.entries[i].prefix.Bits() > d.entries[j].prefix.Bits()
	})
	return nil
}

// MustAdd is Add, panicking on a malformed prefix; for static tables.
func (d *DB) MustAdd(cidr string, site Site) {
	if err := d.Add(cidr, site); err != nil {
		panic(err)
	}
}

// Lookup geolocates an IP address. The boolean reports whether any
// registered prefix contains the address.
func (d *DB) Lookup(ip string) (Site, bool) {
	a, err := netip.ParseAddr(ip)
	if err != nil {
		return Site{}, false
	}
	for _, e := range d.entries {
		if e.prefix.Contains(a) {
			return e.site, true
		}
	}
	return Site{}, false
}

// Len reports the number of registered prefixes.
func (d *DB) Len() int { return len(d.entries) }

// PaperDB returns a geolocation database covering the address blocks
// appearing in the paper's traceroutes (Figs 5–6) and the provider
// datacenters, so simulated traceroute output can be geolocated the same
// way the authors did.
func PaperDB() *DB {
	d := NewDB()
	d.MustAdd("142.103.0.0/16", UBC) // UBC campus
	d.MustAdd("137.82.0.0/16", UBC)  // UBC border
	d.MustAdd("134.87.0.0/16", VancouverIX)
	d.MustAdd("199.212.24.0/24", VancouverIX) // canarie vncv1
	d.MustAdd("199.212.24.68/32", UAlberta)   // canarie edmn1
	d.MustAdd("207.231.242.0/24", SeattleIX)  // pacificwave
	d.MustAdd("129.128.0.0/16", UAlberta)     // UAlberta campus
	d.MustAdd("199.116.232.0/21", UAlberta)   // cybera
	d.MustAdd("216.58.216.0/24", GoogleDriveDC)
	d.MustAdd("216.239.51.0/24", GoogleDriveDC)
	d.MustAdd("209.85.249.0/24", SeattleIX) // google edge, Seattle
	d.MustAdd("108.160.160.0/20", DropboxDC)
	d.MustAdd("134.170.0.0/16", OneDriveDC)
	d.MustAdd("141.211.0.0/16", UMich)
	d.MustAdd("128.210.0.0/15", Purdue)
	d.MustAdd("128.97.0.0/16", UCLA)
	d.MustAdd("164.67.0.0/16", UCLA)
	return d
}
