package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"detournet/internal/bgppol"
	"detournet/internal/core"
	"detournet/internal/detourselect"
	"detournet/internal/health"
	"detournet/internal/httpsim"
	"detournet/internal/scenario"
	"detournet/internal/sdk"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/tracelog"
	"detournet/internal/transport"
)

// SimExecutor is the bridge between the really-concurrent control plane
// and the cooperatively-scheduled simulation: it is both the Executor
// (transfers run on the simulated topology) and the Planner (cache
// misses probe with the detourselect selector).
//
// The simulation admits one driver at a time, so every call serializes
// behind a mutex; scheduler workers overlap in real time on queueing,
// caps, and retries while their transfers execute back-to-back in
// virtual time. SDK and detour clients are built once per (client,
// provider/DTN) pair and reused — this is a long-lived daemon, not the
// paper's per-invocation measurement programs.
//
// The executor owns the world it wraps: Close ends the world's
// simulation too, so a world outlives its executor only for reading.
type SimExecutor struct {
	mu      sync.Mutex
	w       *scenario.World
	sel     *detourselect.Selector
	directs map[[2]string]sdk.Client         // (client, provider)
	detours map[[2]string]*core.DetourClient // (client, dtn)
	// converging holds withdrawn routing sessions until their
	// convergence horizon (fed by the world's RouteBus); multipath lanes
	// crossing one drain instead of racing the blackhole. Guarded by
	// convMu because bus callbacks can fire from any workload drive.
	convMu     sync.Mutex
	converging map[[2]string]float64
	// health, when set (see SetHealth), arms the stall watchdog on every
	// resumable transfer and the per-lane budget on multipath runs.
	health *health.Tracker
	// onAdvance, when set (see OnAdvance), receives the clock after every
	// call that may have advanced it.
	onAdvance func(now float64)
	// Transfers counts completed Execute calls, for reporting.
	Transfers int64
}

// NewSimExecutor wraps a built world.
func NewSimExecutor(w *scenario.World) *SimExecutor {
	e := &SimExecutor{
		w:          w,
		sel:        detourselect.NewSelector(),
		directs:    make(map[[2]string]sdk.Client),
		detours:    make(map[[2]string]*core.DetourClient),
		converging: make(map[[2]string]float64),
	}
	e.subscribeRouteBus()
	return e
}

// SetHealth arms the stall watchdog: resumable transfers run under a
// monitor that aborts (checkpoint intact) when they exceed their
// adaptive time budget or stop making byte progress, surfacing an error
// wrapping core.ErrStall. Implements sched.HealthAware; the scheduler
// calls it from New when Config.Health is set.
func (e *SimExecutor) SetHealth(h *health.Tracker) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.health = h
}

// OnAdvance registers fn to receive the virtual clock each time a call
// that may advance it returns: Execute, ExecuteResumable,
// ExecuteHedged, ExecuteRerouting, ExecuteMultipath, Precheck,
// ReclaimQuota, Plan and SleepVirtual. fn runs after the executor's
// lock is released, so it may call back in — a replay driver submits
// the arrivals now due, interleaving them with service by virtual time
// whatever wrapper the scheduler reaches the executor through.
func (e *SimExecutor) OnAdvance(fn func(now float64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onAdvance = fn
}

// advanced reports the clock to the OnAdvance observer. Time-advancing
// methods defer it before taking e.mu, so it runs once they release it.
func (e *SimExecutor) advanced() {
	e.mu.Lock()
	fn, now := e.onAdvance, float64(e.w.Eng.Now())
	e.mu.Unlock()
	if fn != nil {
		fn(now)
	}
}

// direct returns the cached SDK client for (client, provider). Callers
// hold e.mu.
func (e *SimExecutor) direct(client, provider string) sdk.Client {
	k := [2]string{client, provider}
	c, ok := e.directs[k]
	if !ok {
		c = e.w.NewSDKClient(client, provider)
		e.directs[k] = c
	}
	return c
}

// detourFor returns the cached detour client for (client, dtn). Callers
// hold e.mu.
func (e *SimExecutor) detourFor(client, dtn string) *core.DetourClient {
	k := [2]string{client, dtn}
	dc, ok := e.detours[k]
	if !ok {
		dc = e.w.NewDetourClient(client, dtn)
		e.detours[k] = dc
	}
	return dc
}

// detourClients returns the cached detour clients from client to every
// DTN. Callers hold e.mu.
func (e *SimExecutor) detourClients(client string) map[string]*core.DetourClient {
	out := make(map[string]*core.DetourClient, len(scenario.DTNs))
	for _, dtn := range scenario.DTNs {
		out[dtn] = e.detourFor(client, dtn)
	}
	return out
}

// upload runs job over route inside a workload: resuming from and
// updating ck when it is set, from byte zero otherwise. Callers hold
// e.mu.
func (e *SimExecutor) upload(p *simproc.Proc, job Job, route core.Route, ck *core.Checkpoint) (core.Report, error) {
	if route.Kind == core.Direct {
		c := e.direct(job.Client, job.Provider)
		if ck == nil {
			return core.DirectUpload(p, c, job.Name, job.Size, job.MD5)
		}
		return core.DirectUploadResumable(p, c, job.Name, job.Size, job.MD5, ck)
	}
	dc := e.detourFor(job.Client, route.Via)
	if ck == nil {
		return dc.Upload(p, job.Provider, job.Name, job.Size, job.MD5)
	}
	return dc.UploadResumable(p, job.Provider, job.Name, job.Size, job.MD5, ck)
}

// Execute implements Executor: it runs the transfer as one simulation
// workload and returns the virtual seconds it took.
func (e *SimExecutor) Execute(job Job, route core.Route) (float64, error) {
	return e.ExecuteResumable(job, route, nil)
}

// ExecuteResumable implements ResumableExecutor: like Execute, but the
// transfer reads and updates the scheduler-owned checkpoint, so a retry
// resumes from the DTN's partial offset and the provider session
// instead of restarting at byte zero. A nil ck is Execute.
func (e *SimExecutor) ExecuteResumable(job Job, route core.Route, ck *core.Checkpoint) (float64, error) {
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()
	var rep core.Report
	var err error
	e.w.RunWorkload("sched:"+job.Name, func(p *simproc.Proc) {
		if e.health != nil && ck != nil {
			rep, err = e.runWatched(p, job, route, ck)
		} else {
			rep, err = e.upload(p, job, route, ck)
		}
	})
	if err != nil {
		return 0, classifyExecErr(fmt.Errorf("sched: execute %s via %s: %w", job.Name, route, err))
	}
	e.Transfers++
	return rep.Total, nil
}

// runWatched runs one transfer as a sub-process under the stall
// watchdog. The checkpoint's OnProgress feed updates a live byte
// watermark; a monitor polls it every health CheckInterval and aborts
// the transfer when either gray-failure detector fires:
//
//   - total budget: elapsed time exceeds the adaptive budget derived
//     from the route's learned baseline (catches slow-but-progressing
//     transfers — a crawling first hop keeps the watermark moving);
//   - no progress: the watermark has not advanced for the grace window
//     (catches transfers whose slowness is client-invisible, like a
//     detour's relay hop, which reports nothing until it completes).
//
// Aborting is cooperative: the watchdog raises the checkpoint's abort
// latch and the transfer observes it at its next safe point — a chunk
// ack on the first hop, a relay poll on the second — then returns with
// the checkpoint intact. Flow kills cannot do this job: gray slowness
// lives in *peer* processes (a provider service sleeping mid-write, a
// DTN daemon grinding through a dying disk), where the client side has
// no flow in flight to kill. The surfaced error wraps core.ErrStall,
// so the scheduler's failover resumes elsewhere instead of restarting.
// Callers hold e.mu and run inside a workload.
func (e *SimExecutor) runWatched(p *simproc.Proc, job Job, route core.Route, ck *core.Checkpoint) (core.Report, error) {
	budget := e.health.Budget(health.ClassRoute, route.String(), job.Size)
	start := float64(p.Now())
	// The checkpoint persists across attempts; a latch left over from a
	// previous watchdog abort must not fire this attempt instantly.
	ck.ResetAbort()

	var watermark float64
	prev := ck.OnProgress
	ck.OnProgress = func(b float64) {
		if b > watermark {
			watermark = b
		}
		// Chain to whatever hook was installed before the watchdog's (the
		// control journal's checkpoint writer rides here).
		if prev != nil {
			prev(b)
		}
	}
	defer func() { ck.OnProgress = prev }()

	r := p.Runner()
	done := simproc.NewFuture[bool](r)
	var rep core.Report
	var err error
	r.Go("sched-watched:"+job.Name, func(pp *simproc.Proc) {
		rep, err = e.upload(pp, job, route, ck)
		done.Set(err == nil)
	})
	lastMark, lastAdvance := watermark, start
	reason := ""
	for !done.IsSet() {
		p.Sleep(simclock.Duration(health.CheckInterval))
		if done.IsSet() {
			break
		}
		now := float64(p.Now())
		if watermark > lastMark {
			lastMark, lastAdvance = watermark, now
		}
		switch {
		case now-start > budget:
			reason = fmt.Sprintf("exceeded budget %.0fs", budget)
		case now-lastAdvance > health.NoProgressGrace:
			reason = fmt.Sprintf("no progress for %.0fs", now-lastAdvance)
		}
		if reason != "" {
			break
		}
	}
	if reason == "" {
		return rep, err
	}
	ck.RequestAbort()
	for !done.IsSet() {
		p.Sleep(simclock.Duration(0.25))
	}
	e.w.Trace.Emit("health.stall", map[string]any{
		tracelog.AttrRoute: route.String(), "job": job.Name, "reason": reason,
	})
	return rep, fmt.Errorf("watchdog aborted %s via %s after %.0fs (%s): %w",
		job.Name, route, float64(p.Now())-start, reason, core.ErrStall)
}

// Precheck implements PrecheckExecutor: one Stat against the
// destination provider, true when the object already exists with the
// job's size and (when the job carries one) digest. Crash recovery
// calls this for journal-pending jobs before re-running them, so a
// commit whose finish record died with the old process completes
// instantly instead of re-uploading.
func (e *SimExecutor) Precheck(job Job) bool {
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.direct(job.Client, job.Provider).(sdk.Stater)
	if !ok {
		return false
	}
	found := false
	e.w.RunWorkload("sched:precheck:"+job.Name, func(p *simproc.Proc) {
		fi, err := st.Stat(p, job.Name)
		if err != nil {
			return
		}
		found = fi.Size == job.Size && (job.MD5 == "" || fi.MD5 == job.MD5)
	})
	return found
}

// ExecuteHedged implements HedgedExecutor with a true in-simulation
// race: the primary detour upload starts as one sub-process; if it
// outlives the budget, a direct-route hedge starts as another, both
// sharing the virtual network. First success wins; the loser's flows
// are killed (its transfer aborts with transport.ErrReset) and its
// partial bytes are charged to the checkpoint as rewritten — hedging
// buys tail latency with redundant work, and the accounting shows it.
func (e *SimExecutor) ExecuteHedged(job Job, primary core.Route, budget float64, ck *core.Checkpoint) (float64, core.Route, bool, bool, error) {
	if primary.Kind != core.Detour || budget <= 0 {
		sec, err := e.ExecuteResumable(job, primary, ck)
		return sec, primary, false, false, err
	}
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()

	type outcome struct {
		err   error
		route core.Route
		at    float64
	}
	var win outcome
	launched, won := false, false
	// Both racers commit under one idempotency key, so a loser that
	// commits before its flows die replays the winner's object instead
	// of storing a second one. A job without a journal has no key: the
	// race gets its own, named for the job and the race's start time,
	// and gives it back when the race ends.
	if ck.AttemptID == "" {
		ck.AttemptID = fmt.Sprintf("%s#hedge@%g", job.Name, float64(e.w.Eng.Now()))
		defer func() { ck.AttemptID = "" }()
	}
	// The hedge gets its own checkpoint: two live transfers must not
	// share session state. The survivor's checkpoint is merged below.
	hedgeCk := core.Checkpoint{AttemptID: ck.AttemptID}
	e.w.RunWorkload("sched-hedge:"+job.Name, func(p *simproc.Proc) {
		r := p.Runner()
		start := float64(p.Now())
		results := simproc.NewQueue[outcome](r)
		primDone := simproc.NewFuture[bool](r)
		hedgeDone := simproc.NewFuture[bool](r)
		r.Go("hedge-primary:"+job.Name, func(pp *simproc.Proc) {
			_, err := e.upload(pp, job, primary, ck)
			results.Push(outcome{err, primary, float64(pp.Now())})
			primDone.Set(err == nil)
		})
		// Wait out the budget in slices, so a primary that beats it
		// doesn't leave the virtual clock running to the full budget.
		slice := simclock.Duration(budget / 16)
		for i := 0; i < 16 && !primDone.IsSet(); i++ {
			p.Sleep(slice)
		}
		if primDone.IsSet() {
			hedgeDone.Set(false) // nothing to race
		} else {
			launched = true
			r.Go("hedge-direct:"+job.Name, func(pp *simproc.Proc) {
				_, err := e.upload(pp, job, core.DirectRoute, &hedgeCk)
				results.Push(outcome{err, core.DirectRoute, float64(pp.Now())})
				hedgeDone.Set(err == nil)
			})
		}
		win = results.Pop(p)
		if win.err != nil && launched {
			// The first finisher failed on its own; the other side
			// decides the job.
			if second := results.Pop(p); second.err == nil {
				win = second
			}
		}
		won = launched && win.err == nil && win.route.Kind == core.Direct
		// Cancel the loser: kill its flows until its process observes the
		// abort and exits. A kill can land between two of the loser's
		// chunk flows, so sweep repeatedly; only the racing transfers own
		// flows here (the executor serializes workloads).
		loser := hedgeDone
		if won {
			loser = primDone
		}
		fl := e.w.Graph.Fluid()
		for i := 0; i < 10000 && !loser.IsSet(); i++ {
			fl.KillFlowsWhere(nil)
			p.Sleep(simclock.Duration(0.005))
		}
		win.at -= start
	})
	switch {
	case won:
		// The hedge's checkpoint is the live one; the primary's partial
		// progress on both hops was wasted work.
		wasted := ck.Hop1High + ck.Hop2High
		rewritten := ck.BytesRewritten + hedgeCk.BytesRewritten + wasted
		resumed := ck.BytesResumed + hedgeCk.BytesResumed
		*ck = hedgeCk
		ck.BytesRewritten, ck.BytesResumed = rewritten, resumed
	case launched:
		// The primary won (or both failed): whatever the dead hedge
		// pushed through its own session is wasted.
		ck.BytesRewritten += hedgeCk.Hop2High
	}
	if win.err != nil {
		return 0, primary, launched, false, classifyExecErr(fmt.Errorf("sched: hedged execute %s via %s: %w", job.Name, primary, win.err))
	}
	e.Transfers++
	return win.at, win.route, launched, won, nil
}

// stickyWait is how long a rerouting transfer holding a chunk or more
// of hop-1 progress waits for its checkpoint's own DTN to come back
// before settling for another route. Any other DTN forfeits the staged
// bytes (they are disk-local), so a bounded wait is usually cheaper
// than re-sending them.
const stickyWait = 60

// maxReroutes bounds route switches within one ExecuteRerouting call so
// pathological churn cannot trap an attempt forever.
const maxReroutes = 6

// ExecuteRerouting implements ReroutingExecutor. The whole survive-the-
// churn loop runs as ONE simulation workload, so parking, rerouting and
// resuming spend virtual time against the same fault schedule that is
// churning the routes: a withdraw's convergence window actually passes
// while the transfer parks, and the re-announce it is waiting for fires
// mid-workload.
//
// The loop is make-before-break: a failing transfer keeps its
// checkpoint, picks (and if necessary waits for) a surviving route in
// core.RerouteOrder preference, reattaches the checkpoint there — the
// provider session token is path-portable, the DTN partial is reused
// when hop 1 survives — and only then abandons the dead path. When no
// route exists at all it parks in short virtual slices, up to
// parkBudget seconds total, and fails with core.ErrNoRoute only when
// the budget runs dry.
func (e *SimExecutor) ExecuteRerouting(job Job, route core.Route, ck *core.Checkpoint, parkBudget float64) (float64, core.Route, int, float64, error) {
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := route
	var (
		sec      float64
		parked   float64
		reroutes int
		finalErr error
	)
	e.w.RunWorkload("sched-reroute:"+job.Name, func(p *simproc.Proc) {
		start := float64(p.Now())
		sameRoute := 0
		reroute := func(exclude bool) bool {
			next, waited, ok := e.awaitRoute(p, job, ck, cur, parkBudget-parked, exclude)
			parked += waited
			if !ok {
				finalErr = fmt.Errorf("parked %.0fs with no usable route: %w", parked, core.ErrNoRoute)
				return false
			}
			if next != cur {
				reroutes++
				sameRoute = 0
				cur = next
			}
			return true
		}
		for {
			if !e.routeUsable(job.Client, job.Provider, cur, e.hasProgress(ck, cur)) && !reroute(false) {
				return
			}
			_, err := e.upload(p, job, cur, ck)
			if err == nil {
				sec = float64(p.Now()) - start
				return
			}
			if !isPathError(err) || reroutes >= maxReroutes {
				// Not the path's fault (or churn beyond reason): hand the
				// error back to the scheduler's retry taxonomy.
				finalErr = err
				return
			}
			if e.routeUsable(job.Client, job.Provider, cur, true) && sameRoute < 2 {
				// The topology says the route is back (or never died): a
				// couple of same-route retries preserve every staged byte.
				sameRoute++
				p.Sleep(simclock.Duration(1))
				continue
			}
			if !reroute(true) {
				return
			}
		}
	})
	if finalErr != nil {
		return 0, cur, reroutes, parked, classifyExecErr(fmt.Errorf("sched: execute %s via %s: %w", job.Name, cur, finalErr))
	}
	e.Transfers++
	return sec, cur, reroutes, parked, nil
}

// awaitRoute parks until some route can carry the job, scanning
// core.RerouteOrder preference once per 2-virtual-second slice.
// exclude skips the current route (it keeps failing despite looking
// usable). Inside stickyWait of a checkpoint holding at least one chunk
// on its hop-1 DTN, only that DTN or the current route are taken
// immediately; the best other route is remembered and settled for when
// the window — or the budget — expires. Returns the chosen route, the
// seconds parked, and ok=false when the budget ran dry routeless.
// Callers hold e.mu and run inside a workload.
func (e *SimExecutor) awaitRoute(p *simproc.Proc, job Job, ck *core.Checkpoint, cur core.Route, budget float64, exclude bool) (core.Route, float64, bool) {
	cands := make([]core.Route, 0, len(scenario.DTNs))
	for _, dtn := range scenario.DTNs {
		// A client that is itself a DTN cannot detour via itself: the
		// "first hop" would be a path of one node.
		if dtn != job.Client {
			cands = append(cands, core.ViaRoute(dtn))
		}
	}
	order := core.RerouteOrder(ck, cur, cands)
	stickyUntil := -1.0
	var sticky core.Route
	if ck != nil && ck.Hop1Via != "" && ck.Hop1High >= core.DefaultResumeChunk {
		sticky = core.ViaRoute(ck.Hop1Via)
		stickyUntil = float64(p.Now()) + stickyWait
	}
	waited := 0.0
	for {
		now := float64(p.Now())
		var fallback core.Route
		haveFallback := false
		for _, r := range order {
			if exclude && r == cur {
				continue
			}
			if !e.routeUsable(job.Client, job.Provider, r, r == cur || e.hasProgress(ck, r)) {
				continue
			}
			if now < stickyUntil && r != sticky && r != cur {
				if !haveFallback {
					fallback, haveFallback = r, true
				}
				continue
			}
			return r, waited, true
		}
		if waited >= budget {
			if haveFallback {
				return fallback, waited, true
			}
			return core.Route{}, waited, false
		}
		slice := budget - waited
		if slice > 2 {
			slice = 2
		}
		p.Sleep(simclock.Duration(slice))
		waited += slice
	}
}

// routeUsable reports whether a route can carry the job right now:
// the topology resolves a path end to end (under dynamic routing that
// means the latest RIBs route it — a converging blackhole fails here)
// and, for detours, the DTN agent is up and accepting. existing marks
// work the DTN already holds state for: a draining DTN refuses new
// transfers but finishes existing ones. Only the error matters, so the
// question goes through Graph.RoutedLinks' route memo, which fails
// exactly when Path does for two distinct hosts. Callers hold e.mu.
func (e *SimExecutor) routeUsable(client, provider string, r core.Route, existing bool) bool {
	host, ok := scenario.Providers[provider]
	if !ok {
		host = provider
	}
	switch r.Kind {
	case core.Direct:
		_, err := e.w.Graph.RoutedLinks(client, host)
		return err == nil
	case core.Detour:
		ag, ok := e.w.Agents[r.Via]
		if !ok {
			return false
		}
		if ag.Draining() && !existing {
			return false
		}
		if _, err := e.w.Graph.RoutedLinks(client, r.Via); err != nil {
			return false
		}
		_, err := e.w.Graph.RoutedLinks(r.Via, host)
		return err == nil
	}
	return false
}

// hasProgress reports whether the checkpoint holds staged hop-1 bytes
// on route r — which entitles r to "existing work" treatment at a
// draining DTN and to the sticky preference in awaitRoute.
func (e *SimExecutor) hasProgress(ck *core.Checkpoint, r core.Route) bool {
	return ck != nil && r.Kind == core.Detour && r.Via == ck.Hop1Via && ck.Hop1High > 0
}

// isPathError reports an error that indicts the path rather than the
// transfer: the reroute loop owns these; everything else (integrity
// mismatch, provider 5xx, auth) goes straight back to the scheduler's
// retry taxonomy. Agent-side errors arrive flattened to strings by the
// wire protocol, hence the substring fallbacks.
func isPathError(err error) bool {
	switch {
	case errors.Is(err, transport.ErrReset),
		errors.Is(err, transport.ErrRefused),
		errors.Is(err, bgppol.ErrBlackhole),
		errors.Is(err, bgppol.ErrLoop),
		errors.Is(err, bgppol.ErrNoRoute):
		return true
	}
	msg := err.Error()
	for _, s := range []string{
		"no route", "blackhole", "ttl expired", "no border router",
		"connection reset", "connection closed", "connection refused",
		"draining",
	} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// SleepVirtual advances the simulation clock by sec without sending
// traffic. Wired as Config.Sleep, it makes scheduler backoff spend
// virtual time, so retry delays interact with fault windows the way
// wall-clock delays would in a real deployment.
func (e *SimExecutor) SleepVirtual(sec float64) {
	defer e.advanced()
	if sec <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.w.RunWorkload("sched:backoff", func(p *simproc.Proc) {
		p.Sleep(simclock.Duration(sec))
	})
}

// classifyExecErr maps simulation errors onto the scheduler's failure
// taxonomy. Connection-level errors seen first-hand classify by
// sentinel; errors from the DTN agent arrive flattened to strings by
// the wire protocol, so those fall back to message matching.
func classifyExecErr(err error) error {
	if err == nil {
		return nil
	}
	var se *httpsim.StatusError
	switch {
	case errors.Is(err, core.ErrStall):
		// Already typed by the watchdog; Classify maps it to FailStall.
		// Must precede the reset case — the abort manifests as killed
		// flows, but the stall is the cause, not the hiccup.
		return err
	case errors.Is(err, transport.ErrReset):
		// A mid-stream reset: the path hiccuped but may already be back.
		return Transient(err)
	case errors.Is(err, transport.ErrRefused):
		return RouteDown(err)
	case errors.Is(err, core.ErrIntegrity):
		// A poisoned resume: the session is already discarded, so a
		// retry with a fresh session is the cure — the route is fine.
		return Transient(err)
	case errors.Is(err, core.ErrNoRoute):
		// Park-budget exhaustion: the routing plane may re-announce any
		// moment, so retry (and park again) rather than failing over a
		// route that doesn't exist.
		return Transient(err)
	case errors.Is(err, bgppol.ErrBlackhole),
		errors.Is(err, bgppol.ErrLoop),
		errors.Is(err, bgppol.ErrNoRoute):
		return RouteDown(err)
	case errors.As(err, &se):
		switch {
		case se.Status == httpsim.StatusInsufficientStorage:
			// Storage quota exhaustion: a property of the provider
			// account, not of any route. Must precede the generic >=500
			// case — a 507 retried on another route fails identically.
			return &hintedError{taggedError{tag: core.ErrQuotaExhausted, err: err}, se.RetryAfter}
		case se.Status == httpsim.StatusServiceUnavailable:
			return ProviderDown(err)
		case se.Status == httpsim.StatusTooManyRequests:
			return &hintedError{taggedError{tag: ErrTransient, err: err}, se.RetryAfter}
		case se.Status >= 500:
			return Transient(err)
		}
		return err
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "no route"),
		strings.Contains(msg, "blackhole"),
		strings.Contains(msg, "ttl expired"),
		strings.Contains(msg, "no border router"),
		strings.Contains(msg, "draining"),
		strings.Contains(msg, "no space"):
		// "no space" is a DTN staging disk refusing hop-1 bytes — the
		// detour path, not the job, is out of room; fail over like any
		// dead route and let capacity weights steer future elections.
		return RouteDown(err)
	case strings.Contains(msg, "status 507"),
		strings.Contains(msg, "quota exceeded"),
		strings.Contains(msg, "insufficient storage"):
		// Relayed provider 507s arrive flattened to strings; must
		// precede the generic "status 5" case.
		return Quota(err)
	case strings.Contains(msg, "status 503"):
		return ProviderDown(err)
	case strings.Contains(msg, "connection refused"):
		return RouteDown(err)
	case strings.Contains(msg, "connection reset"),
		strings.Contains(msg, "connection closed"),
		strings.Contains(msg, "status 5"),
		strings.Contains(msg, "status 429"):
		return Transient(err)
	}
	return err
}

// Plan implements Planner: it probes direct and every DTN with the
// selector and returns the predicted-fastest route plus all candidates.
func (e *SimExecutor) Plan(client, provider string, size float64) (core.Route, []core.Route, error) {
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()
	var chosen core.Route
	var preds []detourselect.Prediction
	var err error
	e.w.RunWorkload(fmt.Sprintf("sched-plan:%s->%s", client, provider), func(p *simproc.Proc) {
		chosen, preds, err = e.sel.Choose(p, e.direct(client, provider), e.detourClients(client), provider, size)
	})
	if err != nil {
		return core.Route{}, nil, err
	}
	cands := make([]core.Route, 0, len(preds))
	for _, pr := range preds {
		cands = append(cands, pr.Route)
	}
	return chosen, cands, nil
}

// RoutePaths implements PathAwarePlanner: the node/domain hops each
// route traverses right now, so the route cache can match entries
// against routing events by the sessions they actually cross. A route
// the topology cannot resolve is simply omitted (the cache then falls
// back to whole-key invalidation for it).
func (e *SimExecutor) RoutePaths(client, provider string, routes []core.Route) map[core.Route][]PathHop {
	e.mu.Lock()
	defer e.mu.Unlock()
	host, ok := scenario.Providers[provider]
	if !ok {
		host = provider
	}
	out := make(map[core.Route][]PathHop, len(routes))
	for _, r := range routes {
		switch r.Kind {
		case core.Direct:
			if hops, ok := e.pathHops(client, host); ok {
				out[r] = hops
			}
		case core.Detour:
			h1, ok1 := e.pathHops(client, r.Via)
			h2, ok2 := e.pathHops(r.Via, host)
			if ok1 && ok2 {
				if len(h2) > 0 {
					h2 = h2[1:] // the DTN joins the hops once
				}
				out[r] = append(h1, h2...)
			}
		}
	}
	return out
}

// pathHops resolves src->dst on the live topology into (node, domain)
// hops. Callers hold e.mu.
func (e *SimExecutor) pathHops(src, dst string) ([]PathHop, bool) {
	nodes, err := e.w.Graph.Path(src, dst)
	if err != nil {
		return nil, false
	}
	hops := make([]PathHop, len(nodes))
	for i, n := range nodes {
		hops[i] = PathHop{Node: n.Name, Domain: n.Domain}
	}
	return hops, true
}

// DTNHeadroom implements CapacityOracle against the live simulation:
// the named DTN daemon's free staging bytes (+Inf for an unbounded
// disk, 0 for an unknown DTN). Reads are safe under e.mu — daemon
// state only mutates inside workload drives, which serialize behind
// the same mutex.
func (e *SimExecutor) DTNHeadroom(dtn string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.w.Daemons[dtn]
	if !ok {
		return 0
	}
	return d.Headroom()
}

// reclaimIdleSecs is how stale an unfinished provider upload session
// must be before quota reclamation may garbage-collect it. Short
// enough to matter inside one pressure storm, long enough that no
// live transfer's session (which touches its session every chunk) is
// ever at risk.
const reclaimIdleSecs = 30

// ReclaimQuota implements QuotaReclaimer: ask the provider to
// garbage-collect abandoned upload sessions, freeing their pending
// quota bytes. Returns the bytes freed (0 for an unknown provider or
// nothing to reclaim).
func (e *SimExecutor) ReclaimQuota(provider string) float64 {
	defer e.advanced()
	e.mu.Lock()
	defer e.mu.Unlock()
	svc, ok := e.w.Services[provider]
	if !ok {
		return 0
	}
	var freed float64
	e.w.RunWorkload("sched:reclaim:"+provider, func(p *simproc.Proc) {
		freed = svc.ReclaimQuota(reclaimIdleSecs)
	})
	return freed
}

// VirtualNow returns the simulation clock, i.e. the total virtual
// seconds all transfers and probes have consumed.
func (e *SimExecutor) VirtualNow() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return float64(e.w.Eng.Now())
}

// Close releases the cached SDK clients' connections, then closes the
// world (scenario.World.Close).
func (e *SimExecutor) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.directs {
		c.Close()
	}
	e.w.Close()
}
