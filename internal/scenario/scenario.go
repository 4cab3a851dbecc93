// Package scenario builds the calibrated simulation world of the paper's
// experiments: the North-America topology of October–November 2015 with
// the PlanetLab client sites (UBC, Purdue, UCLA, UMich), the UAlberta
// cluster, the CANARIE/Cybera research networks, commodity transit, and
// the three providers' datacenters (Google Drive — Mountain View,
// Dropbox — Ashburn VA, OneDrive — Seattle).
//
// Calibration targets are the paper's measured throughputs, not its
// router inventory: each link's capacity and background load are chosen
// so the per-path effective bandwidths match Tables II–IV (e.g. UBC→
// Google Drive ≈ 1.2 MB/s through the PacificWave hand-off, UBC→UAlberta
// ≈ 5.5 MB/s over CANARIE, Purdue→Google ≈ 0.15 MB/s through a congested
// commodity peering). Three route pins reproduce the paper's observed
// path artifacts; everything else follows min-delay routing.
package scenario

import (
	"fmt"
	"math/rand"

	"detournet/internal/bgppol"
	"detournet/internal/cloudsim"
	"detournet/internal/core"
	"detournet/internal/fluid"
	"detournet/internal/rsyncx"
	"detournet/internal/sdk"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tcpmodel"
	"detournet/internal/topology"
	"detournet/internal/tracelog"
	"detournet/internal/transport"
	"detournet/internal/xtraffic"
)

// Host names of the paper's machines.
const (
	UBC      = "ubc-pl"
	UAlberta = "ualberta"
	UMich    = "umich-pl"
	Purdue   = "purdue-pl"
	UCLA     = "ucla-pl"

	GDriveDC   = "gdrive-dc"
	DropboxDC  = "dropbox-dc"
	OneDriveDC = "onedrive-dc"
)

// Provider names as the SDK reports them.
const (
	GoogleDrive = "GoogleDrive"
	Dropbox     = "Dropbox"
	OneDrive    = "OneDrive"
)

// Clients are the paper's three measured client sites (Sec III A–C).
var Clients = []string{UBC, Purdue, UCLA}

// DTNs are the paper's two candidate intermediate nodes.
var DTNs = []string{UAlberta, UMich}

// Providers maps provider name to datacenter host.
var Providers = map[string]string{
	GoogleDrive: GDriveDC,
	Dropbox:     DropboxDC,
	OneDrive:    OneDriveDC,
}

// ProviderNames lists providers in the paper's column order.
var ProviderNames = []string{GoogleDrive, Dropbox, OneDrive}

// MBps converts megabytes/second to the bytes/second the fluid layer
// uses.
const MBps = 1e6

// World is a fully wired simulation of the paper's setting.
type World struct {
	Eng    *simclock.Engine
	Runner *simproc.Runner
	Graph  *topology.Graph
	Net    *transport.Net

	Services map[string]*cloudsim.Service // by provider name
	POPs     map[string]*cloudsim.POP     // by POP host
	Daemons  map[string]*rsyncx.Daemon    // by DTN host
	Agents   map[string]*core.Agent       // by DTN host
	Cross    *xtraffic.Controller
	// Trace receives detour and agent events from clients built by
	// NewDetourClient and from the DTN agents.
	Trace *tracelog.Log

	// RouteBus carries routing-plane events (session withdraw/announce,
	// link flaps, pin flips) to subscribers — always present so fault
	// injectors can publish even without dynamic routing.
	RouteBus *bgppol.Bus
	// Routing is the staged-convergence BGP layer, non-nil only under
	// WithDynamicRouting.
	Routing *bgppol.Dynamic

	pausers []Pauser
	seed    int64
}

// Pauser is anything that injects scheduled background activity into
// the world — cross-traffic, fault schedules — and must pause between
// workloads so the event queue can drain. Restart arms it when a
// workload starts; StopAll cancels its pending events when the
// workload ends (see xtraffic.Controller for the pattern).
type Pauser interface {
	Restart()
	StopAll()
}

// AddPauser registers extra background activity (e.g. a fault
// injector) to start and stop around every workload.
func (w *World) AddPauser(p Pauser) { w.pausers = append(w.pausers, p) }

// Option adjusts world construction, for sensitivity studies.
type Option func(*buildCfg)

type buildCfg struct {
	capOverride    map[[2]string]float64 // MB/s per directed pair
	policyRouting  bool
	dynamicRouting bool
	googlePOP      bool
}

// WithLinkCapacity overrides one adjacency's capacity (both directions)
// in MB/s — the knob the sensitivity experiments sweep (e.g. "how fast
// would the PacificWave hand-off have to be for the detour to stop
// winning?").
func WithLinkCapacity(a, b string, mbps float64) Option {
	if mbps <= 0 {
		panic("scenario: non-positive capacity override")
	}
	return func(c *buildCfg) {
		c.capOverride[[2]string{a, b}] = mbps
		c.capOverride[[2]string{b, a}] = mbps
	}
}

// GooglePOPVancouver is the edge host added by WithGoogleVancouverPOP.
const GooglePOPVancouver = "google-pop-van"

// WithGoogleVancouverPOP adds a Google edge POP in Vancouver, hanging
// off the CANARIE exchange with a well-provisioned port — the paper's
// "providers may add additional POPs or gateways" remedy. Clients opt in
// by pointing their SDK at GooglePOPVancouver instead of the datacenter.
func WithGoogleVancouverPOP() Option {
	return func(c *buildCfg) { c.googlePOP = true }
}

// Build constructs the world. The seed drives all cross-traffic; the
// same seed reproduces every timing bit-for-bit.
func Build(seed int64, opts ...Option) *World {
	eng := simclock.NewEngine()
	r := simproc.New(eng)
	g := topology.New(fluid.New(eng))
	w := &World{
		Eng: eng, Runner: r, Graph: g,
		Services: make(map[string]*cloudsim.Service),
		POPs:     make(map[string]*cloudsim.POP),
		Daemons:  make(map[string]*rsyncx.Daemon),
		Agents:   make(map[string]*core.Agent),
		Cross:    xtraffic.NewController(),
		seed:     seed,
	}
	w.Trace = tracelog.New(eng)
	cfg := &buildCfg{capOverride: map[[2]string]float64{}}
	for _, opt := range opts {
		opt(cfg)
	}
	w.buildNodes()
	if cfg.googlePOP {
		w.Graph.MustAddNode(&topology.Node{Name: GooglePOPVancouver,
			Hostname: "van01s01-in-f1.1e100.net", IP: "216.58.216.1",
			Kind: topology.Host, Domain: "Google", RespondsICMP: true})
	}
	w.buildLinks(cfg)
	if cfg.googlePOP {
		// A well-provisioned exchange port (the fix the paper imagines)
		// and a fat backhaul into Google's Seattle edge.
		w.Graph.MustConnect("vncv1", GooglePOPVancouver,
			topology.LinkSpec{CapacityBps: 7 * MBps, DelaySec: 0.0024})
		w.Graph.MustConnect(GooglePOPVancouver, "google-edge-sea",
			topology.LinkSpec{CapacityBps: 20 * MBps, DelaySec: 0.0026})
	}
	// Provider networks are stubs: they never carry transit traffic. On
	// the real Internet BGP export policy enforces this; here a filtered
	// min-delay router does (see TestNoProviderTransit).
	g.SetRouter(topology.MinDelayFiltered{
		Allow: topology.NoStubTransit("Google", "Microsoft", "Dropbox"),
	})
	if cfg.policyRouting {
		w.installPolicyRouting()
	}
	w.RouteBus = bgppol.NewBus()
	if cfg.dynamicRouting {
		w.installDynamicRouting()
	}
	w.buildOverrides()
	w.Net = transport.NewNet(g, r, tcpmodel.Params{RwndBytes: 4 << 20})
	w.buildServices()
	w.buildDTNs()
	w.buildCrossTraffic()
	return w
}

func (w *World) buildNodes() {
	g := w.Graph
	host := func(name, hostname, ip, domain string) {
		g.MustAddNode(&topology.Node{Name: name, Hostname: hostname, IP: ip,
			Kind: topology.Host, Domain: domain, RespondsICMP: true})
	}
	router := func(name, hostname, ip, domain string) {
		g.MustAddNode(&topology.Node{Name: name, Hostname: hostname, IP: ip,
			Kind: topology.Router, Domain: domain, RespondsICMP: true})
	}
	dark := func(name, hostname, ip, domain string) {
		g.MustAddNode(&topology.Node{Name: name, Hostname: hostname, IP: ip,
			Kind: topology.Router, Domain: domain, RespondsICMP: false})
	}

	// UBC side (Fig 5).
	host(UBC, "planetlab1.cs.ubc.ca", "142.103.2.10", "UBC")
	router("ubc-gw", "142.103.2.253", "142.103.2.253", "UBC")
	router("ubc-net", "a0-a1.net.ubc.ca", "142.103.78.250", "UBC")
	router("ubc-border", "angusborder-a0.net.ubc.ca", "137.82.123.137", "UBC")
	router("bcnet", "345-IX-cr1-UBCAb.vncv1.BC.net", "134.87.0.58", "BCNet")
	router("vncv1", "vncv1rtr2.canarie.ca", "199.212.24.1", "CANARIE")
	router("pacificwave", "google-1-lo-std-707.sttlwa.pacificwave.net", "207.231.242.20", "PacificWave")
	dark("google-peer", "peer.google.internal", "209.85.249.1", "Google")
	router("google-edge-sea", "209.85.249.32", "209.85.249.32", "Google")
	router("google-bb", "216.239.51.159", "216.239.51.159", "Google")
	host(GDriveDC, "sea15s01-in-f138.1e100.net", "216.58.216.138", "Google")

	// UAlberta side (Fig 6).
	host(UAlberta, "cluster.cs.ualberta.ca", "129.128.184.10", "UAlberta")
	router("uofa-fw", "ww-fw.cs.ualberta.ca", "129.128.184.254", "UAlberta")
	dark("uofa-hidden", "fw-inside.cs.ualberta.ca", "172.26.240.1", "UAlberta")
	router("uofa-r1", "172.26.244.22", "172.26.244.22", "UAlberta")
	router("uofa-r2", "172.26.244.17", "172.26.244.17", "UAlberta")
	router("uofa-core", "core1-sc.backbone.ualberta.ca", "129.128.0.10", "UAlberta")
	router("uofa-gsb", "gsb-asr-core1.backbone.ualberta.ca", "129.128.0.21", "UAlberta")
	router("cybera", "uofa-p-1-edm.cybera.ca", "199.116.233.66", "Cybera")
	router("edmn1", "edmn1rtr2.canarie.ca", "199.212.24.68", "CANARIE")

	// Commodity transit (west, Chicago, Ashburn).
	router("tr-sea", "xe-11-0-0.sea10.transit.net", "4.68.10.1", "Transit")
	router("tr-chi", "ae-2-52.chi21.transit.net", "4.68.20.1", "Transit")
	router("tr-ash", "ae-7-8.ash41.transit.net", "4.68.30.1", "Transit")

	// Microsoft / OneDrive (Seattle).
	router("ms-sea", "ms-peering.sttlwa.ix", "198.32.134.10", "Microsoft")
	host(OneDriveDC, "blu-storage.onedrive.live.com", "134.170.0.10", "Microsoft")

	// Dropbox (Ashburn).
	host(DropboxDC, "dropbox-edge-ashburn.dropbox.com", "108.160.166.62", "Dropbox")

	// UMich (Merit / Internet2 Chicago).
	host(UMich, "planetlab1.eecs.umich.edu", "141.211.12.10", "UMich")
	router("umich-gw", "merit-umich-gw.mich.net", "198.108.1.1", "Merit")
	router("i2-chi", "et-1-1-5.4079.core1.chic.net.internet2.edu", "64.57.20.1", "Internet2")
	router("i2-sea", "et-4-0-0.4079.core2.seat.net.internet2.edu", "64.57.20.2", "Internet2")
	router("google-peer-chi", "google-peering.chic", "72.14.219.1", "Google")

	// Purdue (campus + commodity ISP for commercial prefixes).
	host(Purdue, "planetlab1.cs.purdue.edu", "128.210.48.10", "Purdue")
	router("purdue-gw", "tel-210-c6509.tcom.purdue.edu", "128.210.0.1", "Purdue")
	router("isp-chi", "ae-2-5.bar1.chicago.isp.net", "4.69.10.1", "ISP")
	router("isp-west", "ae-7-7.ebr1.sanjose.isp.net", "4.69.20.1", "ISP")
	router("isp-ash", "ae-3-80.edge2.washington.isp.net", "4.69.30.1", "ISP")

	// UCLA (CENIC).
	host(UCLA, "planetlab1.ucla.edu", "128.97.27.10", "UCLA")
	router("ucla-gw", "border-pl.ucla.edu", "128.97.0.1", "UCLA")
	router("cenic", "dc-lax-agg6.cenic.net", "137.164.11.1", "CENIC")
	router("google-sj", "google-peering.snjsca", "72.14.232.1", "Google")
}

// link is one calibrated adjacency.
type link struct {
	a, b  string
	mbps  float64 // capacity, MB/s
	ms    float64 // one-way delay, milliseconds
	load  float64 // mean cross-traffic load (0 = quiet)
	burst float64 // cross-traffic burstiness
	// oneWay adds only the a->b direction. Provider peering links are
	// one-way at the routing level so that min-delay routing cannot
	// construct valley paths that transit a provider backbone (the job
	// policy routing does on the real Internet).
	oneWay bool
	// onOff, when non-nil, replaces the AR(1) process with a two-state
	// episode process (see xtraffic.OnOffConfig) — used for the Purdue
	// westward path whose multi-minute congestion episodes produce the
	// paper's size-dependent detour benefit and huge error bars.
	onOff *xtraffic.OnOffConfig
}

// links returns the calibrated adjacency table. Comments give the
// paper-derived effective throughput targets.
func links() []link {
	return []link{
		// UBC campus and BCNet: plenty of headroom; the paper shows the
		// UBC egress is not the bottleneck (Sec III-A).
		{a: UBC, b: "ubc-gw", mbps: 100, ms: 0.2},
		{a: "ubc-gw", b: "ubc-net", mbps: 100, ms: 0.2},
		{a: "ubc-net", b: "ubc-border", mbps: 100, ms: 0.2},
		{a: "ubc-border", b: "bcnet", mbps: 10, ms: 0.5},
		{a: "bcnet", b: "vncv1", mbps: 8, ms: 0.5},

		// The paper's central artifact: from vncv1rtr2 there are two ways
		// into Google's Seattle edge. The PacificWave hand-off is
		// rate-limited (~1.2 MB/s effective — UBC direct takes 87 s for
		// 100 MB); the private peering is fast (~6.4 MB/s — UAlberta
		// direct takes 17 s).
		{a: "vncv1", b: "pacificwave", mbps: 1.25, ms: 2.5, load: 0.05, burst: 0.3},
		{a: "pacificwave", b: "google-edge-sea", mbps: 10, ms: 0.5},
		{a: "vncv1", b: "google-peer", mbps: 7.0, ms: 2.3, load: 0.08, burst: 0.3},
		{a: "google-peer", b: "google-edge-sea", mbps: 10, ms: 0.5},
		{a: "google-edge-sea", b: "google-bb", mbps: 50, ms: 1},
		{a: "google-bb", b: GDriveDC, mbps: 50, ms: 11},

		// CANARIE Vancouver<->Edmonton: UBC->UAlberta ≈ 5.5 MB/s
		// (19 s / 100 MB, Fig 2).
		{a: "vncv1", b: "edmn1", mbps: 5.8, ms: 6, load: 0.05, burst: 0.2},
		{a: "edmn1", b: "cybera", mbps: 10, ms: 0.3},
		{a: "cybera", b: "uofa-gsb", mbps: 10, ms: 0.3},
		{a: "uofa-gsb", b: "uofa-core", mbps: 100, ms: 0.2},
		{a: "uofa-core", b: "uofa-r2", mbps: 100, ms: 0.2},
		{a: "uofa-r2", b: "uofa-r1", mbps: 100, ms: 0.2},
		{a: "uofa-r1", b: "uofa-hidden", mbps: 100, ms: 0.2},
		{a: "uofa-hidden", b: "uofa-fw", mbps: 100, ms: 0.2},
		{a: "uofa-fw", b: UAlberta, mbps: 12, ms: 0.2},

		// CANARIE peering with Microsoft at Seattle: UBC/UAlberta to
		// OneDrive ≈ 4 MB/s, direct beats detours from UBC.
		{a: "vncv1", b: "ms-sea", mbps: 4.2, ms: 2.5, load: 0.05, burst: 0.3},
		{a: "ms-sea", b: OneDriveDC, mbps: 6, ms: 0.3},

		// Commodity transit westward + cross-country: UBC->Dropbox
		// ≈ 3.5 MB/s direct.
		{a: "bcnet", b: "tr-sea", mbps: 6, ms: 2.2, load: 0.15, burst: 0.5},
		{a: "vncv1", b: "tr-sea", mbps: 2.2, ms: 2.0, load: 0.10, burst: 0.4}, // CANARIE commodity hand-off (UAlberta->Dropbox ≈ 2 MB/s)
		{a: "tr-sea", b: "tr-chi", mbps: 4.2, ms: 22, load: 0.15, burst: 0.5},
		{a: "tr-chi", b: "tr-ash", mbps: 5, ms: 9, load: 0.10, burst: 0.3},
		{a: "tr-ash", b: DropboxDC, mbps: 6, ms: 0.5},
		{a: "tr-sea", b: "ms-sea", mbps: 4, ms: 0.5, load: 0.1, burst: 0.3},

		// UMich: PlanetLab ingress is capped (~0.85 MB/s — UBC->UMich
		// takes ~120 s / 100 MB) but egress and the Internet2->Google
		// peering are fast (~8 MB/s, the fastest Google path measured).
		{a: "tr-chi", b: "umich-gw", mbps: 8, ms: 3, load: 0.05, burst: 0.2},
		{a: "umich-gw", b: "i2-chi", mbps: 9, ms: 3},
		{a: "i2-chi", b: "google-peer-chi", mbps: 8.5, ms: 1, load: 0.06, burst: 0.2},
		{a: "google-peer-chi", b: "google-bb", mbps: 50, ms: 18},
		{a: "i2-chi", b: "tr-ash", mbps: 3.0, ms: 8,
			onOff: &xtraffic.OnOffConfig{GoodLoad: 0.10, BadLoad: 0.85, MeanGood: 420, MeanBad: 160}},
		{a: "i2-chi", b: "i2-sea", mbps: 4.0, ms: 20, load: 0.10, burst: 0.3},
		{a: "i2-sea", b: "ms-sea", mbps: 6, ms: 0.5},
		{a: "i2-chi", b: "edmn1", mbps: 6.0, ms: 18, load: 0.05, burst: 0.2}, // Internet2<->CANARIE (Purdue->UAlberta detour leg)

		// Purdue: the slice's access link caps research-bound traffic at
		// ~0.57 MB/s; the commodity path westward is congested
		// (~0.44 MB/s effective to Seattle) and the ISP->Google peering
		// is badly congested (~0.15 MB/s — 748 s / 100 MB in Table III).
		{a: Purdue, b: "purdue-gw", mbps: 0.6, ms: 0.3, load: 0.05, burst: 0.35},
		{a: "purdue-gw", b: "i2-chi", mbps: 8, ms: 3},
		{a: "purdue-gw", b: "isp-chi", mbps: 5, ms: 3},
		{a: "isp-chi", b: "isp-west", mbps: 2.0, ms: 22,
			onOff: &xtraffic.OnOffConfig{GoodLoad: 0.55, BadLoad: 0.93, MeanGood: 110, MeanBad: 90}},
		{a: "isp-west", b: "google-bb", mbps: 0.55, ms: 2,
			onOff: &xtraffic.OnOffConfig{GoodLoad: 0.45, BadLoad: 0.92, MeanGood: 110, MeanBad: 90}},
		{a: "isp-west", b: "ms-sea", mbps: 3, ms: 2, load: 0.15, burst: 0.4},
		{a: "isp-chi", b: "isp-ash", mbps: 2.2, ms: 9, load: 0.20, burst: 0.5},
		{a: "isp-ash", b: DropboxDC, mbps: 6, ms: 0.5},

		// UCLA: the PlanetLab node's last mile is the bottleneck
		// (~0.39 MB/s); nothing downstream matters (Sec III-C).
		{a: UCLA, b: "ucla-gw", mbps: 0.42, ms: 0.3, load: 0.08, burst: 0.4},
		{a: "ucla-gw", b: "cenic", mbps: 10, ms: 0.5},
		{a: "cenic", b: "google-sj", mbps: 8, ms: 2, load: 0.05, burst: 0.2},
		{a: "google-sj", b: "google-bb", mbps: 50, ms: 2},
		{a: "cenic", b: "tr-sea", mbps: 5, ms: 12, load: 0.10, burst: 0.3},
		{a: "cenic", b: "tr-ash", mbps: 4, ms: 28, load: 0.10, burst: 0.3},
	}
}

func (w *World) buildLinks(cfg *buildCfg) {
	for _, l := range links() {
		mbps := l.mbps
		if ov, ok := cfg.capOverride[[2]string{l.a, l.b}]; ok {
			mbps = ov
		}
		spec := topology.LinkSpec{CapacityBps: mbps * MBps, DelaySec: l.ms / 1000}
		if l.oneWay {
			w.Graph.MustConnectAsym(l.a, l.b, spec)
			continue
		}
		w.Graph.MustConnect(l.a, l.b, spec)
	}
	// PlanetLab slice ingress caps are asymmetric: replace the inbound
	// directions with tighter links. (Outbound stays as built above.)
	w.Graph.MustAddNode(&topology.Node{Name: "umich-pl-in", Hostname: "pl-ingress.umich",
		IP: "141.211.12.1", Kind: topology.Router, Domain: "UMich", RespondsICMP: true})
	w.Graph.MustConnectAsym("umich-gw", "umich-pl-in", topology.LinkSpec{CapacityBps: 0.95 * MBps, DelaySec: 0.0003})
	w.Graph.MustConnectAsym("umich-pl-in", UMich, topology.LinkSpec{CapacityBps: 10 * MBps, DelaySec: 0.0001})
	w.Graph.MustConnectAsym(UMich, "umich-gw", topology.LinkSpec{CapacityBps: 9 * MBps, DelaySec: 0.0003})
}

// buildOverrides pins the three observed path artifacts.
func (w *World) buildOverrides() {
	g := w.Graph
	// 1. UBC's Google traffic leaves CANARIE through the rate-limited
	// PacificWave hand-off (Fig 5), even though the fast private peering
	// hangs off the very same router.
	g.MustSetOverride(UBC, "ubc-gw", "ubc-net", "ubc-border", "bcnet", "vncv1",
		"pacificwave", "google-edge-sea", "google-bb", GDriveDC)
	// 2–3. Purdue's PlanetLab traffic to Google and OneDrive rides the
	// commodity ISP path with the congested westward peering, not
	// Internet2 (the paper's Purdue direct-upload pathology, Fig 7/9).
	g.MustSetOverride(Purdue, "purdue-gw", "isp-chi", "isp-west", "google-bb", GDriveDC)
	g.MustSetOverride(Purdue, "purdue-gw", "isp-chi", "isp-west", "ms-sea", OneDriveDC)
}

func (w *World) buildServices() {
	styles := map[string]cloudsim.Style{
		GoogleDrive: cloudsim.GoogleDrive,
		Dropbox:     cloudsim.Dropbox,
		OneDrive:    cloudsim.OneDrive,
	}
	for _, name := range ProviderNames {
		svc := cloudsim.NewService(w.Eng, w.Net, name, Providers[name], styles[name])
		svc.Start(w.Net)
		w.Services[name] = svc
	}
}

// StartGooglePOP starts the Vancouver POP (the world must have been
// built with WithGoogleVancouverPOP) and returns it.
func (w *World) StartGooglePOP() *cloudsim.POP {
	if _, ok := w.Graph.Node(GooglePOPVancouver); !ok {
		panic("scenario: world built without WithGoogleVancouverPOP")
	}
	pop := cloudsim.StartPOP(w.Net, w.Services[GoogleDrive], GooglePOPVancouver)
	w.POPs[GooglePOPVancouver] = pop
	return pop
}

// NewSDKClientVia builds a Google Drive SDK client that talks to an
// arbitrary API frontend host (a POP) instead of the datacenter.
func (w *World) NewSDKClientVia(from, frontend string) sdk.Client {
	svc := w.Services[GoogleDrive]
	creds := sdk.Register(svc, "app-"+from+"-pop", "secret")
	return sdk.NewGoogleDrive(w.Eng, w.Net, from, frontend, creds, sdk.Options{})
}

func (w *World) buildDTNs() {
	for _, dtn := range DTNs {
		d := rsyncx.NewDaemon(w.Net, dtn)
		d.Start()
		w.Daemons[dtn] = d
		a := core.NewAgent(w.Net, dtn, d)
		a.Trace = w.Trace
		for _, prov := range ProviderNames {
			a.RegisterProvider(w.NewSDKClient(dtn, prov))
		}
		a.Start()
		w.Agents[dtn] = a
	}
}

func (w *World) buildCrossTraffic() {
	rng := rand.New(rand.NewSource(w.seed))
	fl := w.Graph.Fluid()
	for _, l := range links() {
		if l.load == 0 && l.onOff == nil {
			continue
		}
		// Load both directions; uploads stress the forward one but
		// reverse-path congestion exists too.
		for _, dir := range [][2]string{{l.a, l.b}, {l.b, l.a}} {
			e, ok := w.Graph.Edge(dir[0], dir[1])
			if !ok {
				if l.oneWay && dir[0] == l.b {
					continue
				}
				panic(fmt.Sprintf("scenario: missing edge %s->%s", dir[0], dir[1]))
			}
			seeded := rand.New(rand.NewSource(rng.Int63()))
			if l.onOff != nil {
				w.Cross.AttachOnOff(fl, e.Link, *l.onOff, seeded)
				continue
			}
			w.Cross.Attach(fl, e.Link, xtraffic.Config{
				MeanLoad: l.load, Burstiness: l.burst, Interval: 4,
			}, seeded)
		}
	}
}

// NewSDKClient builds a provider SDK client dialing from the given host,
// with fresh credentials registered on the provider's auth server.
func (w *World) NewSDKClient(from, provider string) sdk.Client {
	return w.NewSDKClientWithChunk(from, provider, 0)
}

// NewSDKClientWithChunk is NewSDKClient with an explicit upload chunk
// size (bytes; zero keeps the provider's default), used by the
// chunk-size ablation.
func (w *World) NewSDKClientWithChunk(from, provider string, chunk float64) sdk.Client {
	svc, ok := w.Services[provider]
	if !ok {
		panic(fmt.Sprintf("scenario: unknown provider %q", provider))
	}
	creds := sdk.Register(svc, "app-"+from, "secret-"+from)
	opts := sdk.Options{ChunkBytes: chunk}
	switch provider {
	case GoogleDrive:
		return sdk.NewGoogleDrive(w.Eng, w.Net, from, svc.Host, creds, opts)
	case Dropbox:
		return sdk.NewDropbox(w.Eng, w.Net, from, svc.Host, creds, opts)
	default:
		return sdk.NewOneDrive(w.Eng, w.Net, from, svc.Host, creds, opts)
	}
}

// NewDetourClient builds a detour client from a client host via a DTN.
func (w *World) NewDetourClient(from, via string) *core.DetourClient {
	if _, ok := w.Agents[via]; !ok {
		panic(fmt.Sprintf("scenario: %q is not a DTN", via))
	}
	dc := core.NewDetourClient(w.Net, from, via)
	dc.Trace = w.Trace
	return dc
}

// RunWorkload executes fn as a simulation process and drives the world
// to quiescence: cross-traffic restarts for the workload and stops when
// it finishes so the event queue can drain. Sequential workloads share
// the same world and virtual clock.
func (w *World) RunWorkload(name string, fn func(p *simproc.Proc)) {
	w.Cross.Restart()
	for _, pz := range w.pausers {
		pz.Restart()
	}
	done := false
	w.Runner.Go(name, func(p *simproc.Proc) {
		fn(p)
		for _, pz := range w.pausers {
			pz.StopAll()
		}
		w.Cross.StopAll()
		done = true
	})
	w.Runner.Drive()
	if !done {
		panic(fmt.Sprintf("scenario: workload %q did not finish", name))
	}
}

// Close ends the world's simulation: every server loop and every other
// process still parked unwinds, and its coroutine exits, so the world
// can be freed once its owner drops it. Its state stays readable, but
// no workload can run in it after Close. RunWorkload has already
// stopped the cross-traffic and pausers when it returned.
func (w *World) Close() { w.Runner.Close() }

// Routes returns the paper's route set for a client: direct, via
// UAlberta, via UMich.
func Routes() []core.Route {
	return []core.Route{core.DirectRoute, core.ViaRoute(UAlberta), core.ViaRoute(UMich)}
}
