// Package faults is a sim-clock-driven fault injector for the
// detournet world: it replays declarative, scripted fault schedules —
// link flaps and degradations, provider outages and error bursts, DTN
// crashes — against a scenario.World, deterministically.
//
// Each Spec describes one fault as a (possibly recurring) window on the
// virtual clock. The injector registers as a world Pauser, so it obeys
// the same contract as cross-traffic: transitions are scheduled as
// engine events only while a workload is driving the clock, and the
// pending event is cancelled between workloads so the runner can drain.
// Fault *state* is real state and persists across workloads — a link
// downed at t=100 stays down until its window ends, no matter how many
// workloads run in between.
//
// Determinism: windows are pure functions of the virtual clock, and the
// randomness behind injected provider errors draws from per-service
// streams seeded from the injector's seed. The same seed and schedule
// reproduce every transition and every injected error bit-for-bit (see
// TestChaosDeterminism).
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"detournet/internal/bgppol"
	"detournet/internal/scenario"
	"detournet/internal/simclock"
)

// Kind enumerates the fault families the injector can script.
type Kind int

const (
	// LinkDown takes a topology edge down (both directions) for the
	// window: routing loses the edge and in-flight flows are killed.
	LinkDown Kind = iota
	// LinkDegrade keeps the edge up but shrinks the capacity of both
	// directions by CapacityFactor for the window. It is gray by
	// construction: no routing-plane event, no flow kills, no errors —
	// transfers just slow down, as they do under silent loss, and only
	// throughput observation can see it.
	LinkDegrade
	// ProviderOutage hard-downs a provider's API front end (every
	// request answers 503) for the window.
	ProviderOutage
	// ProviderErrors makes a provider's front end flaky for the window:
	// requests fail with 500s at ErrorRate and 429s at ThrottleRate.
	ProviderErrors
	// DTNCrash crashes a DTN's rsync daemon and relay agent at window
	// start (in-flight relays die; staged files and partials survive on
	// disk) and restarts them at window end.
	DTNCrash
	// RouteChurn drives the routing control plane for the window: with
	// DomainA/DomainB set it withdraws that BGP session at window start
	// (staged reconvergence begins, in-flight flows crossing the
	// boundary are killed) and re-announces it at window end; with
	// PinSrc/PinDst set it flips a pinned route away and back — the
	// paper's PacificWave hand-off disappearing from the tables.
	// Session churn requires a world built WithDynamicRouting.
	RouteChurn
	// DTNDrain administratively drains a DTN for the window: its relay
	// agent stops accepting new detour jobs while in-flight jobs (and
	// checkpoint continuations carrying a session token) complete.
	DTNDrain
	// ProviderSlow is the slow-but-200 gray fault: for the window the
	// provider ingests payloads from the named Sources at SlowBps while
	// serving every request successfully — the real-world "one peering
	// point is silently rate-limited" pathology.
	ProviderSlow
	// DTNDiskSlow is the dying-disk gray fault: the DTN's staging disk
	// commits at DiskBps for the window, so relayed transfers crawl
	// through hop 1 without a single error.
	DTNDiskSlow
	// TornWrite arms torn-write injection for the window: against a DTN
	// it makes daemon crashes leave half-written (and bit-damaged)
	// partial chunks on disk instead of atomic temp-file renames;
	// against the journal (Journal=true) it tears the tail of the next
	// control-plane journal append.
	TornWrite
	// BitRot silently flips bytes at window start — Flips staged chunks
	// on a DTN's disk, or Flips bytes of the control-plane journal
	// (Journal=true). Nothing errors: the damage is only visible to
	// checksum verification (the chunk manifest, the journal CRCs).
	BitRot
	// DiskFill occupies FillBytes of a DTN's staging disk for the window
	// — a co-tenant filling the shared scratch volume. Gray by
	// construction: no routing event, no error until a push actually
	// fails admission; only headroom observation (the scheduler's
	// capacity oracle) can see it coming.
	DiskFill
	// QuotaDrain charges DrainBytes of a provider's storage quota for
	// the window by opening an abandoned upload session holding that
	// many pending bytes — another client's stalled resumable upload
	// eating the shared account. The drain is reclaimable: a scheduler
	// that reacts to 507s with a session-reclaim pass frees it early.
	QuotaDrain
	// JournalENOSPC pins the control-plane journal device at its
	// current size for the window (appends past it answer ENOSPC) — the
	// volume under the scheduler's write-ahead log filling up. The
	// actual clamp is performed by the crashsafe harness's CrashControl
	// hook.
	JournalENOSPC
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkDegrade:
		return "link-degrade"
	case ProviderOutage:
		return "provider-outage"
	case ProviderErrors:
		return "provider-errors"
	case DTNCrash:
		return "dtn-crash"
	case RouteChurn:
		return "route-churn"
	case DTNDrain:
		return "dtn-drain"
	case ProviderSlow:
		return "provider-slow"
	case DTNDiskSlow:
		return "dtn-disk-slow"
	case TornWrite:
		return "torn-write"
	case BitRot:
		return "bit-rot"
	case DiskFill:
		return "disk-fill"
	case QuotaDrain:
		return "quota-drain"
	case JournalENOSPC:
		return "journal-enospc"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec declares one scripted fault.
type Spec struct {
	Kind Kind

	// From and To name the edge for LinkDown and LinkDegrade.
	From, To string
	// Provider names the service for ProviderOutage and ProviderErrors.
	Provider string
	// DTN names the host for DTNCrash and DTNDrain.
	DTN string
	// DomainA and DomainB name the BGP session for RouteChurn.
	DomainA, DomainB string
	// PinSrc and PinDst name a pinned route for RouteChurn's pin-flip
	// form (mutually exclusive with DomainA/DomainB).
	PinSrc, PinDst string

	// Start is the virtual time (seconds) the first window opens.
	Start float64
	// Duration is the window length in virtual seconds.
	Duration float64
	// Period, when positive, repeats the window every Period seconds
	// (must exceed Duration). Zero means one-shot.
	Period float64
	// Repeat caps the number of windows when Period is set (0 = repeat
	// for as long as the clock advances).
	Repeat int

	// CapacityFactor (LinkDegrade) multiplies the edge capacity during
	// the window; in (0, 1).
	CapacityFactor float64
	// ErrorRate and ThrottleRate (ProviderErrors) are the per-request
	// probabilities of an injected 500 and 429 during the window.
	ErrorRate    float64
	ThrottleRate float64

	// Sources (ProviderSlow) lists the client hosts whose payloads the
	// provider silently throttles; SlowBps is their ingestion rate in
	// bytes/second.
	Sources []string
	SlowBps float64
	// DiskBps (DTNDiskSlow) is the degraded staging-disk write rate in
	// bytes/second during the window.
	DiskBps float64

	// Journal (TornWrite, BitRot) targets the control-plane journal
	// instead of a DTN's staging disk.
	Journal bool
	// Flips (BitRot) is how many staged chunks (or journal bytes) to
	// corrupt at window start; 0 means one.
	Flips int

	// FillBytes (DiskFill) is how many bytes of the DTN's staging disk
	// the fault occupies during the window.
	FillBytes float64
	// DrainBytes (QuotaDrain) is how many pending bytes the abandoned
	// upload session charges against the provider's quota.
	DrainBytes float64
}

// target renders the spec's subject for logs.
func (s Spec) target() string {
	switch s.Kind {
	case LinkDown, LinkDegrade:
		return s.From + "<->" + s.To
	case DTNCrash, DTNDrain, DTNDiskSlow, DiskFill:
		return s.DTN
	case JournalENOSPC:
		return "journal"
	case RouteChurn:
		if s.DomainA != "" {
			return s.DomainA + "~" + s.DomainB
		}
		return s.PinSrc + "=>" + s.PinDst
	case TornWrite, BitRot:
		if s.Journal {
			return "journal"
		}
		return s.DTN
	default:
		return s.Provider
	}
}

// state is a Spec plus its runtime position.
type state struct {
	Spec
	active   bool
	ev       *simclock.Event
	savedCap map[[2]string]float64
	// savedDisk is the staging capacity DiskFill restores at window end.
	savedDisk float64
	// drainID is the abandoned session QuotaDrain drops at window end.
	drainID string
}

// stateAt reports whether the fault is active at time t and when it
// next transitions (+Inf when it never will again).
func (sp *state) stateAt(t float64) (bool, float64) {
	if t < sp.Start {
		return false, sp.Start
	}
	if sp.Period <= 0 {
		if t < sp.Start+sp.Duration {
			return true, sp.Start + sp.Duration
		}
		return false, math.Inf(1)
	}
	k := math.Floor((t - sp.Start) / sp.Period)
	if sp.Repeat > 0 && k >= float64(sp.Repeat) {
		return false, math.Inf(1)
	}
	off := sp.Start + k*sp.Period
	if t < off+sp.Duration {
		return true, off + sp.Duration
	}
	if sp.Repeat > 0 && k+1 >= float64(sp.Repeat) {
		return false, math.Inf(1)
	}
	return false, off + sp.Period
}

// Injector replays a fault schedule against one world. Create with
// NewInjector; it wires itself in as a world Pauser.
type Injector struct {
	w       *scenario.World
	eng     *simclock.Engine
	specs   []*state
	stopped bool

	// Injected counts applied transitions (activations + recoveries).
	Injected    int
	transitions []string

	control *CrashControl
	rotRand *rand.Rand
}

// CrashControl carries the control-plane hooks the journal-targeted
// TornWrite, BitRot and JournalENOSPC faults act on. The crashsafe
// harness wires these to the scheduler's journal; a schedule using
// those kinds without a registered control panics at apply time.
type CrashControl struct {
	// TornJournal toggles torn-tail injection on journal appends.
	TornJournal func(active bool)
	// FlipJournal flips one byte of the journal device, chosen with rng.
	FlipJournal func(rng *rand.Rand)
	// JournalENOSPC clamps (active) or unclamps the journal device's
	// capacity at its current size, so appends past it answer ENOSPC.
	JournalENOSPC func(active bool)
}

// SetCrashControl registers the control-plane hooks. Call before the
// first TornWrite{Journal}/BitRot{Journal}/JournalENOSPC window opens.
func (inj *Injector) SetCrashControl(c *CrashControl) { inj.control = c }

// NewInjector validates the schedule, seeds the provider fault
// randomness, and registers the injector with the world. It panics on
// a malformed spec — a schedule is build-time configuration.
func NewInjector(w *scenario.World, seed int64, specs ...Spec) *Injector {
	inj := &Injector{w: w, eng: w.Eng, stopped: true}
	for _, sp := range specs {
		inj.validate(sp)
		inj.specs = append(inj.specs, &state{Spec: sp})
	}
	// Per-service error streams, seeded in a fixed provider order so the
	// same seed reproduces the same injected faults.
	rng := rand.New(rand.NewSource(seed))
	for _, name := range scenario.ProviderNames {
		if svc := w.Services[name]; svc != nil && svc.FaultRand == nil {
			svc.FaultRand = rand.New(rand.NewSource(rng.Int63()))
		}
	}
	// Drawn after the provider streams so pre-existing schedules keep
	// their exact fault sequences.
	inj.rotRand = rand.New(rand.NewSource(rng.Int63()))
	w.AddPauser(inj)
	return inj
}

func (inj *Injector) validate(sp Spec) {
	if sp.Duration <= 0 {
		panic(fmt.Sprintf("faults: %s %s: non-positive duration", sp.Kind, sp.target()))
	}
	if sp.Period > 0 && sp.Period <= sp.Duration {
		panic(fmt.Sprintf("faults: %s %s: period %.3g must exceed duration %.3g", sp.Kind, sp.target(), sp.Period, sp.Duration))
	}
	switch sp.Kind {
	case LinkDown, LinkDegrade:
		if _, ok := inj.w.Graph.Edge(sp.From, sp.To); !ok {
			panic(fmt.Sprintf("faults: %s: no edge %s->%s", sp.Kind, sp.From, sp.To))
		}
		if sp.Kind == LinkDegrade && (sp.CapacityFactor <= 0 || sp.CapacityFactor >= 1) {
			panic(fmt.Sprintf("faults: %s %s: capacity factor must be in (0,1)", sp.Kind, sp.target()))
		}
	case ProviderSlow:
		if inj.w.Services[sp.Provider] == nil {
			panic(fmt.Sprintf("faults: %s: unknown provider %q", sp.Kind, sp.Provider))
		}
		if len(sp.Sources) == 0 || sp.SlowBps <= 0 {
			panic(fmt.Sprintf("faults: %s %s: needs Sources and positive SlowBps", sp.Kind, sp.target()))
		}
	case DTNDiskSlow:
		if inj.w.Daemons[sp.DTN] == nil {
			panic(fmt.Sprintf("faults: %s: unknown DTN %q", sp.Kind, sp.DTN))
		}
		if sp.DiskBps <= 0 {
			panic(fmt.Sprintf("faults: %s %s: needs positive DiskBps", sp.Kind, sp.target()))
		}
	case ProviderOutage, ProviderErrors:
		if inj.w.Services[sp.Provider] == nil {
			panic(fmt.Sprintf("faults: %s: unknown provider %q", sp.Kind, sp.Provider))
		}
	case DTNCrash:
		if inj.w.Daemons[sp.DTN] == nil || inj.w.Agents[sp.DTN] == nil {
			panic(fmt.Sprintf("faults: %s: unknown DTN %q", sp.Kind, sp.DTN))
		}
	case DTNDrain:
		if inj.w.Agents[sp.DTN] == nil {
			panic(fmt.Sprintf("faults: %s: unknown DTN %q", sp.Kind, sp.DTN))
		}
	case DiskFill:
		if inj.w.Daemons[sp.DTN] == nil {
			panic(fmt.Sprintf("faults: %s: unknown DTN %q", sp.Kind, sp.DTN))
		}
		if sp.FillBytes <= 0 {
			panic(fmt.Sprintf("faults: %s %s: needs positive FillBytes", sp.Kind, sp.target()))
		}
	case QuotaDrain:
		if inj.w.Services[sp.Provider] == nil {
			panic(fmt.Sprintf("faults: %s: unknown provider %q", sp.Kind, sp.Provider))
		}
		if sp.DrainBytes <= 0 {
			panic(fmt.Sprintf("faults: %s %s: needs positive DrainBytes", sp.Kind, sp.target()))
		}
	case JournalENOSPC:
		// Window-only: the CrashControl hook is checked at apply time.
	case TornWrite, BitRot:
		if !sp.Journal && inj.w.Daemons[sp.DTN] == nil {
			panic(fmt.Sprintf("faults: %s: unknown DTN %q (set Journal for the control plane)", sp.Kind, sp.DTN))
		}
	case RouteChurn:
		switch {
		case sp.DomainA != "" && sp.DomainB != "" && sp.PinSrc == "" && sp.PinDst == "":
			if inj.w.Routing == nil {
				panic(fmt.Sprintf("faults: %s %s: world built without WithDynamicRouting", sp.Kind, sp.target()))
			}
			if !inj.w.Routing.SessionUp(sp.DomainA, sp.DomainB) {
				panic(fmt.Sprintf("faults: %s: no BGP session %s~%s", sp.Kind, sp.DomainA, sp.DomainB))
			}
		case sp.PinSrc != "" && sp.PinDst != "" && sp.DomainA == "" && sp.DomainB == "":
			if _, ok := inj.w.Graph.Override(sp.PinSrc, sp.PinDst); !ok {
				panic(fmt.Sprintf("faults: %s: no pinned route %s=>%s", sp.Kind, sp.PinSrc, sp.PinDst))
			}
		default:
			panic(fmt.Sprintf("faults: %s: set exactly one of DomainA/DomainB or PinSrc/PinDst", sp.Kind))
		}
	default:
		panic(fmt.Sprintf("faults: unknown kind %d", int(sp.Kind)))
	}
	if sp.ErrorRate < 0 || sp.ErrorRate > 1 || sp.ThrottleRate < 0 || sp.ThrottleRate > 1 {
		panic(fmt.Sprintf("faults: %s %s: rates must be in [0,1]", sp.Kind, sp.target()))
	}
}

// Restart implements scenario.Pauser: it reconciles every spec with
// the current clock (applying whatever state should hold now) and arms
// the next transition event.
func (inj *Injector) Restart() {
	if !inj.stopped {
		return
	}
	inj.stopped = false
	for _, sp := range inj.specs {
		inj.arm(sp)
	}
}

// StopAll implements scenario.Pauser: pending transition events are
// cancelled so the runner can drain. Applied fault state persists — a
// downed link stays down between workloads.
func (inj *Injector) StopAll() {
	if inj.stopped {
		return
	}
	inj.stopped = true
	for _, sp := range inj.specs {
		if sp.ev != nil {
			inj.eng.Cancel(sp.ev)
			sp.ev = nil
		}
	}
}

// arm reconciles one spec with the clock and schedules its next
// transition; each transition event re-arms.
func (inj *Injector) arm(sp *state) {
	active, next := sp.stateAt(float64(inj.eng.Now()))
	if active != sp.active {
		inj.apply(sp, active)
	}
	if math.IsInf(next, 1) {
		sp.ev = nil
		return
	}
	sp.ev = inj.eng.Schedule(simclock.Time(next), func() {
		sp.ev = nil
		inj.arm(sp)
	})
}

// apply flips one fault's state on the world.
func (inj *Injector) apply(sp *state, active bool) {
	sp.active = active
	switch sp.Kind {
	case LinkDown:
		inj.w.Graph.SetLinkState(sp.From, sp.To, !active)
		inj.w.Graph.SetLinkState(sp.To, sp.From, !active)
		// Both directions of the flap go on the route bus, so push-based
		// subscribers (the scheduler's route cache) learn immediately —
		// the restore included: a healed link must clear its quarantine
		// now, not when some TTL lapses.
		inj.publishLink(active, sp.From, sp.To)
	case LinkDegrade:
		inj.applyDegrade(sp, active)
	case ProviderOutage:
		inj.w.Services[sp.Provider].Down = active
	case ProviderErrors:
		svc := inj.w.Services[sp.Provider]
		if active {
			svc.ErrorRate, svc.ThrottleRate = sp.ErrorRate, sp.ThrottleRate
		} else {
			svc.ErrorRate, svc.ThrottleRate = 0, 0
		}
	case DTNCrash:
		if active {
			inj.w.Daemons[sp.DTN].Crash()
			inj.w.Agents[sp.DTN].Crash()
		} else {
			inj.w.Daemons[sp.DTN].Start()
			inj.w.Agents[sp.DTN].Start()
		}
	case RouteChurn:
		inj.applyChurn(sp, active)
	case ProviderSlow:
		svc := inj.w.Services[sp.Provider]
		if active {
			if svc.SlowFor == nil {
				svc.SlowFor = make(map[string]float64)
			}
			for _, src := range sp.Sources {
				svc.SlowFor[src] = sp.SlowBps
			}
		} else {
			for _, src := range sp.Sources {
				delete(svc.SlowFor, src)
			}
		}
	case DTNDiskSlow:
		if active {
			inj.w.Daemons[sp.DTN].DiskBps = sp.DiskBps
		} else {
			inj.w.Daemons[sp.DTN].DiskBps = 0
		}
	case TornWrite:
		if sp.Journal {
			if inj.control == nil || inj.control.TornJournal == nil {
				panic(fmt.Sprintf("faults: %s %s: no CrashControl registered", sp.Kind, sp.target()))
			}
			inj.control.TornJournal(active)
		} else {
			inj.w.Daemons[sp.DTN].TornWrites = active
		}
	case BitRot:
		if active {
			inj.applyBitRot(sp)
		}
	case DiskFill:
		// Gray storage pressure: a co-tenant occupies FillBytes of the
		// staging volume, modeled as a capacity shrink. No bus event —
		// only headroom observation sees it before pushes start bouncing.
		d := inj.w.Daemons[sp.DTN]
		if active {
			sp.savedDisk = d.Capacity
			if d.Capacity > 0 {
				nc := d.Capacity - sp.FillBytes
				if nc < 1 {
					nc = 1
				}
				d.Capacity = nc
			}
		} else {
			d.Capacity = sp.savedDisk
		}
	case QuotaDrain:
		svc := inj.w.Services[sp.Provider]
		if active {
			sp.drainID = svc.InjectAbandonedSession("faults:quota-drain", sp.DrainBytes)
		} else {
			// The session may already be gone — a scheduler's reclaim pass
			// collecting it early is the mitigation working as intended.
			svc.DropSession(sp.drainID)
			sp.drainID = ""
		}
	case JournalENOSPC:
		if inj.control == nil || inj.control.JournalENOSPC == nil {
			panic(fmt.Sprintf("faults: %s %s: no CrashControl registered", sp.Kind, sp.target()))
		}
		inj.control.JournalENOSPC(active)
	case DTNDrain:
		if active {
			inj.w.Agents[sp.DTN].Drain()
		} else {
			inj.w.Agents[sp.DTN].Undrain()
		}
		// Node-scoped event: any cached route whose path touches the DTN
		// should stop being elected (withdraw) or become eligible again
		// (announce).
		inj.publishLink(active, sp.DTN, "")
	}
	inj.Injected++
	inj.transitions = append(inj.transitions,
		fmt.Sprintf("t=%.3f %s %s active=%v", float64(inj.eng.Now()), sp.Kind, sp.target(), active))
	inj.w.Trace.Emit("fault."+sp.Kind.String(), map[string]any{
		"target": sp.target(), "active": active,
	})
}

// applyChurn flips a routing-plane fault: a BGP session withdraw/
// announce (staged reconvergence, published by the Dynamic layer) or a
// pinned-route flip (published here as a link-scope event). Either way
// the data plane follows: flows riding the vanished adjacency are
// killed, exactly as a withdrawn next hop strands packets mid-path.
func (inj *Injector) applyChurn(sp *state, active bool) {
	if sp.DomainA != "" {
		var err error
		if active {
			err = inj.w.Routing.WithdrawSession(sp.DomainA, sp.DomainB)
		} else {
			err = inj.w.Routing.AnnounceSession(sp.DomainA, sp.DomainB)
		}
		if err != nil {
			panic(fmt.Sprintf("faults: %s %s: %v", sp.Kind, sp.target(), err))
		}
		if active {
			inj.w.Graph.KillDomainBoundaryFlows(sp.DomainA, sp.DomainB)
		}
		return
	}
	inj.w.Graph.SetOverrideEnabled(sp.PinSrc, sp.PinDst, !active)
	if active {
		if hops, ok := inj.w.Graph.Override(sp.PinSrc, sp.PinDst); ok {
			for i := 0; i+1 < len(hops); i++ {
				inj.w.Graph.KillEdgeFlows(hops[i], hops[i+1])
			}
		}
	}
	inj.publishLink(active, sp.PinSrc, sp.PinDst)
}

// publishLink puts a link-scope event on the world's route bus.
func (inj *Injector) publishLink(withdraw bool, from, to string) {
	if inj.w.RouteBus == nil {
		return
	}
	kind := bgppol.EventAnnounce
	if withdraw {
		kind = bgppol.EventWithdraw
	}
	now := float64(inj.eng.Now())
	inj.w.RouteBus.Publish(bgppol.Event{
		Kind: kind, FromNode: from, ToNode: to, At: now, ConvergedBy: now,
	})
}

// applyBitRot corrupts Flips targets at window start: random staged
// chunks on a DTN's disk, or random journal bytes. Draws come from the
// injector's dedicated rot stream, so the same seed decays the same
// bytes. Corruption is silent by construction — no error, no event;
// only checksums can see it.
func (inj *Injector) applyBitRot(sp *state) {
	n := sp.Flips
	if n < 1 {
		n = 1
	}
	if sp.Journal {
		if inj.control == nil || inj.control.FlipJournal == nil {
			panic(fmt.Sprintf("faults: %s %s: no CrashControl registered", sp.Kind, sp.target()))
		}
		for i := 0; i < n; i++ {
			inj.control.FlipJournal(inj.rotRand)
		}
		return
	}
	d := inj.w.Daemons[sp.DTN]
	names := d.StagedNames()
	if len(names) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		name := names[inj.rotRand.Intn(len(names))]
		chunks := d.StagedChunks(name)
		if chunks < 1 {
			continue
		}
		d.RotChunk(name, inj.rotRand.Intn(chunks))
	}
}

// applyDegrade shrinks or restores both directions of the edge. Nothing
// is published and no flow dies: the degradation is invisible to
// everything except the throughput the link delivers.
func (inj *Injector) applyDegrade(sp *state, active bool) {
	fl := inj.w.Graph.Fluid()
	for _, dir := range [][2]string{{sp.From, sp.To}, {sp.To, sp.From}} {
		e, ok := inj.w.Graph.Edge(dir[0], dir[1])
		if !ok {
			continue
		}
		if active {
			if sp.savedCap == nil {
				sp.savedCap = make(map[[2]string]float64)
			}
			sp.savedCap[dir] = e.Link.Capacity
			fl.SetLinkCapacity(e.Link, e.Link.Capacity*sp.CapacityFactor)
		} else if c, ok := sp.savedCap[dir]; ok {
			fl.SetLinkCapacity(e.Link, c)
		}
	}
}

// Transitions returns the applied-transition log, one line per state
// change, in order. The log is deterministic for a given seed and
// schedule.
func (inj *Injector) Transitions() []string {
	out := make([]string, len(inj.transitions))
	copy(out, inj.transitions)
	return out
}

// CannedSchedule is the demo schedule `detourd -chaos` plays: a
// recurring flap of the CANARIE Vancouver–Edmonton leg (the UBC
// detour's first hop), a degradation of the PacificWave hand-off, a
// Google Drive error burst, a Dropbox outage, and one UAlberta DTN
// crash.
func CannedSchedule() []Spec {
	return []Spec{
		{Kind: LinkDown, From: "vncv1", To: "edmn1", Start: 60, Duration: 20, Period: 300},
		{Kind: LinkDegrade, From: "vncv1", To: "pacificwave", Start: 45, Duration: 60, Period: 240, CapacityFactor: 0.4},
		{Kind: ProviderErrors, Provider: scenario.GoogleDrive, Start: 120, Duration: 45, Period: 400, ErrorRate: 0.25, ThrottleRate: 0.15},
		{Kind: ProviderOutage, Provider: scenario.Dropbox, Start: 200, Duration: 30, Period: 600},
		{Kind: DTNCrash, DTN: scenario.UAlberta, Start: 350, Duration: 40},
	}
}

// GrayfailSchedule is the gray-failure scenario the grayfail replay
// (`detourbench -experiment grayfail`) plays. Nothing in it (bar one short
// hard-error burst so the retry budget has something to meter) ever
// returns an error: the CANARIE Vancouver–Edmonton leg silently
// degrades to half its capacity for a minute, then Google Drive
// silently throttles ingestion from the UAlberta DTN for thirty-five
// minutes (the favorite UBC detour's second hop crawls while every
// request still 200s), and finally UAlberta's staging disk degrades
// for thirty minutes (the same detour's first hop crawls). The long windows are
// the point: a gray failure lasts until someone notices, and nothing
// in the ablation ever does.
func GrayfailSchedule() []Spec {
	return []Spec{
		{Kind: LinkDegrade, From: "vncv1", To: "edmn1", CapacityFactor: 0.5,
			Start: 60, Duration: 60},
		{Kind: ProviderSlow, Provider: scenario.GoogleDrive,
			Sources: []string{scenario.UAlberta}, SlowBps: 0.05 * scenario.MBps,
			Start: 150, Duration: 2100},
		{Kind: ProviderErrors, Provider: scenario.GoogleDrive,
			Start: 650, Duration: 120, ErrorRate: 0.35, ThrottleRate: 0.2},
		{Kind: DTNDiskSlow, DTN: scenario.UAlberta, DiskBps: 0.15 * scenario.MBps,
			Start: 2700, Duration: 1800},
	}
}

// CrashsafeSchedule is the storage-decay scenario the crashsafe
// replay (`detourbench -experiment crashsafe`) plays alongside the
// control-plane crash sweep: UAlberta's staging disk loses write
// atomicity early (a daemon crash now leaves torn, bit-damaged
// partials instead of atomic renames), the DTN crashes mid-fleet to
// exercise exactly that, and staged bytes silently rot twice while
// transfers are in flight — the chunk manifest must catch and repair
// every flip.
func CrashsafeSchedule() []Spec {
	return []Spec{
		{Kind: TornWrite, DTN: scenario.UAlberta, Start: 10, Duration: 3600},
		{Kind: DTNCrash, DTN: scenario.UAlberta, Start: 120, Duration: 30},
		{Kind: BitRot, DTN: scenario.UAlberta, Start: 300, Duration: 5, Period: 240, Repeat: 2, Flips: 2},
	}
}

// PressureSchedule is the storage-pressure scenario the pressure
// replay (`detourbench -experiment pressure`) plays against a world
// with finite staging disks and a finite Google Drive quota: a
// co-tenant fills most of UAlberta's staging volume early (the
// favorite detour's hop-1 disk), then UMich's too while UAlberta is
// still full (so for a while every detour is pressured at once), an
// abandoned client drains a slice of the shared Google Drive quota
// for most of the run, and the control-plane journal volume fills
// mid-run. Nothing errors until bytes actually fail to fit: the
// windows are long because storage pressure is a slow fault — it
// lasts until something evicts, spills, or reclaims.
func PressureSchedule() []Spec {
	return []Spec{
		{Kind: DiskFill, DTN: scenario.UAlberta, FillBytes: 450e6,
			Start: 60, Duration: 1800},
		{Kind: DiskFill, DTN: scenario.UMich, FillBytes: 450e6,
			Start: 900, Duration: 1200},
		{Kind: QuotaDrain, Provider: scenario.GoogleDrive, DrainBytes: 600e6,
			Start: 120, Duration: 2400},
		{Kind: JournalENOSPC, Start: 240, Duration: 1560},
	}
}

// ChurnSchedule is the reconvergence storm the churn replay
// (`detourbench -experiment churn`) plays against a world built
// WithDynamicRouting: the paper's PacificWave hand-off flips away and
// back, the CANARIE–Google and ISP–Google peerings withdraw (research
// and commodity paths to Google reconverge through Internet2), the
// cross-border CANARIE–Internet2 session flaps, Cybera's only uplink
// withdraws (UAlberta unreachable until re-announce — parked
// transfers absorb the blackhole), a plain data-plane flap exercises
// the push-invalidation restore path, and UAlberta drains for
// maintenance mid-storm.
func ChurnSchedule() []Spec {
	return []Spec{
		{Kind: RouteChurn, PinSrc: scenario.UBC, PinDst: scenario.GDriveDC, Start: 60, Duration: 50, Period: 210},
		{Kind: RouteChurn, DomainA: "CANARIE", DomainB: "Google", Start: 95, Duration: 45, Period: 260},
		{Kind: RouteChurn, DomainA: "ISP", DomainB: "Google", Start: 120, Duration: 50, Period: 280},
		{Kind: RouteChurn, DomainA: "CANARIE", DomainB: "Internet2", Start: 175, Duration: 40, Period: 330},
		{Kind: RouteChurn, DomainA: "Cybera", DomainB: "CANARIE", Start: 240, Duration: 35, Period: 360},
		{Kind: LinkDown, From: "vncv1", To: "edmn1", Start: 40, Duration: 15, Period: 180},
		{Kind: DTNDrain, DTN: scenario.UAlberta, Start: 300, Duration: 60, Period: 450},
	}
}
