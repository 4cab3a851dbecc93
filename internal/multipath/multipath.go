// Package multipath stripes one logical upload into fixed-size chunks
// and drives them concurrently over K routes — direct plus up to N
// detours — recovering the capacity a single-path chooser leaves on the
// table when different paths bottleneck in different places (the
// paper's UBC case: the PacificWave direct hand-off and the UAlberta
// detour are limited by disjoint links).
//
// The chunk scheduler is pull-based and work-conserving: an idle path
// claims the lowest pending chunk, so faster paths automatically carry
// a throughput-proportional share without rate estimation. At the tail,
// when no pending chunks remain, an idle path may re-dispatch a
// straggler's in-flight chunk — a hedged duplicate, budgeted by
// hedgeMaxFrac so duplication can never amplify load past a fixed
// fraction of the transfer. Each path carries its own core.Checkpoint,
// so a path failure or reroute loses at most the one chunk it had in
// flight; the chunk returns to the pending set and another path carries
// it. A path whose route the routing plane has withdrawn (or whose DTN
// is draining) stops claiming new chunks but keeps polling — drained
// make-before-break, not torn down — and resumes claiming when the
// route is announced again.
//
// Chunks upload as independent part objects through each provider's own
// session semantics (Drive offset sessions, Dropbox correct_offset,
// OneDrive ranges — one resumable session per chunk); ordered
// reassembly is the provider-side compose commit (Env.Commit), which
// concatenates the parts in index order into the final object.
//
// Everything runs inside one simulation workload: path processes are
// cooperative simproc processes, shared scheduler state needs no locks,
// and claim order is deterministic per seed — the property the
// determinism regression tests pin down.
package multipath

import (
	"errors"
	"fmt"
	"math"

	"detournet/internal/core"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
	"detournet/internal/stats"
	"detournet/internal/tracelog"
)

// PartName returns the deterministic provider-object name of chunk i of
// a striped upload. Part names embed the final name, so concurrent
// striped uploads never collide.
func PartName(name string, i int) string {
	return fmt.Sprintf("%s.mp%04d", name, i)
}

// FlowScope returns the simproc flow scope a striped transfer's path
// processes run under. Every transport flow a lane starts (and, via the
// DTN agent's scope adoption, every second-hop relay flow it causes)
// carries this scope in its label, so Env.Abort can kill exactly this
// transfer's flows — never another transfer's between the same
// endpoints.
func FlowScope(name string) string {
	return "mp:" + name
}

// Uploader drives one chunk object over one path. Implementations wrap
// core.DirectUploadResumable or (*core.DetourClient).UploadResumable;
// the checkpoint is the path's own and carries resume state across
// retries of the same chunk.
type Uploader interface {
	UploadChunk(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error
}

// UploaderFunc adapts a function to the Uploader interface.
type UploaderFunc func(*simproc.Proc, string, float64, *core.Checkpoint) error

// UploadChunk implements Uploader.
func (f UploaderFunc) UploadChunk(p *simproc.Proc, part string, size float64, ck *core.Checkpoint) error {
	return f(p, part, size, ck)
}

// Path is one lane of a striped transfer.
type Path struct {
	// ID is the path's index; report lines and trace events carry it.
	ID int
	// Route is the lane's route, for usability checks and reporting.
	Route core.Route
	// Upload drives one chunk over this lane; required.
	Upload Uploader
}

// Env is the striped transfer's view of the surrounding world. Every
// field is optional except Commit when the caller wants the compose
// step performed.
type Env struct {
	// Usable reports whether a route can carry work right now; existing
	// marks a retry of a chunk the path already holds progress for (a
	// draining DTN finishes existing work but refuses new). Nil means
	// always usable.
	Usable func(route core.Route, existing bool) bool
	// Abort tears down the path's in-flight transport flows — how the
	// driver cancels the losing duplicate of a hedged chunk the moment
	// the winner commits. Nil means losers run to completion (their full
	// chunk counts as duplicate bytes).
	Abort func(path Path)
	// Commit performs the ordered reassembly once every chunk has
	// landed: compose the parts, in index order, into the final object.
	// Nil skips the commit (tests that only exercise the scheduler).
	Commit func(p *simproc.Proc, parts []string) error
	// Budget, when set (and Abort is set), arms the per-lane stall
	// watchdog: it returns the gray-failure time budget for moving size
	// bytes over route (the health layer's adaptive floor). A dispatch
	// that outlives its budget is aborted; the lane sees a reset, the
	// chunk releases to a healthier lane, and a lane that keeps stalling
	// retires through the normal consecutive-failure path. Nil disables
	// lane watchdogs. A non-positive returned budget exempts that
	// dispatch.
	Budget func(route core.Route, size float64) float64
	// Trace receives mp.* events; nil is safe.
	Trace *tracelog.Log
}

// Spec describes one striped upload.
type Spec struct {
	// Name is the final object name; Size the total bytes.
	Name string
	Size float64
	// MD5 is the whole-file digest recorded at commit; empty skips it.
	MD5 string
	// Chunk is the stripe unit in bytes (default core.DefaultResumeChunk).
	Chunk float64
}

const (
	// hedgeMaxFrac caps duplicated bytes as a fraction of Size — the
	// same amplification-cap idea as the scheduler's hedge budget.
	hedgeMaxFrac float64 = 0.15
	// stragglerQuantile: at the tail, only paths whose observed rate is
	// at or below this quantile of all live path rates are hedge
	// targets.
	stragglerQuantile float64 = 0.5
	// stallTimeout fails the transfer when no chunk commits for this
	// many virtual seconds — the backstop against every path sitting
	// drained forever.
	stallTimeout float64 = 900
	// tailSplit divides the final K-chunks-worth of bytes (K = number
	// of paths) into Chunk/tailSplit stripes. Small tail chunks make
	// the lanes finish nearly together — without them, every lane
	// strands up to one full chunk at the end, and on a shared-
	// bottleneck site (the paper's UCLA capped last mile) that
	// staggered tail is pure loss against the single-path baseline.
	tailSplit = 4
)

// Layout returns the stripe sizes for a transfer over k paths: full
// chunk-sized stripes for the head, then chunk/split stripes over the
// final k-chunks-worth of bytes. Transfers too small to have a head are
// cut uniformly at chunk. Exported so tests and tools can recover the
// exact chunk boundaries of a striped transfer from its report.
func Layout(size, chunk float64, k, split int) []float64 {
	var sizes []float64
	cut := func(bytes, unit float64) {
		for bytes > 0 {
			n := unit
			if bytes < n {
				n = bytes
			}
			sizes = append(sizes, n)
			bytes -= n
		}
	}
	tail := chunk * float64(k)
	if split <= 1 || k <= 1 || size <= tail+chunk {
		cut(size, chunk)
		return sizes
	}
	head := math.Floor((size-tail)/chunk) * chunk
	cut(head, chunk)
	cut(size-head, chunk/float64(split))
	return sizes
}

// maxDispatch bounds dispatches per chunk (failures and hedges
// combined) so a poisoned chunk cannot loop forever.
const maxDispatch = 8

// laneWatchInterval is the lane watchdog's poll period in virtual
// seconds (matching health.CheckInterval).
const laneWatchInterval = 5

// maxPathFails retires a path after this many consecutive failures.
const maxPathFails = 4

// ErrNoPath reports a striped transfer whose every path retired or
// stalled before the chunks were done.
var ErrNoPath = errors.New("multipath: no usable path")

type chunkStatus int

const (
	chunkPending chunkStatus = iota
	chunkInflight
	chunkDone
)

type chunk struct {
	status      chunkStatus
	size        float64
	owner       int // path ID of the primary dispatch, while inflight
	dispatches  int
	committedBy int
}

// pathState is one lane's live bookkeeping.
type pathState struct {
	path      Path
	up        Uploader
	ck        core.Checkpoint
	current   int     // chunk in flight, -1 when idle
	startedAt float64 // when the in-flight dispatch began
	busy      float64
	bytes     float64 // committed bytes (first completions only)
	dup       float64 // duplicate bytes this path moved and lost
	chunks    []int   // committed chunk ids in commit order
	fails     int
	consec    int
	steals    int
	drains    int
	draining  bool
	retired   bool
	// stalled is raised by the lane watchdog when it aborts the current
	// dispatch and cleared at each dispatch try: a stalled chunk is
	// released at once instead of retried in place on the same lane.
	stalled bool
}

// state is the shared chunk ledger. Path processes are cooperative
// (simproc), so no locking: exactly one process touches it at a time.
type state struct {
	spec   Spec
	env    Env
	chunks []chunk
	paths  []*pathState

	pending   int
	done      int
	dupBudget float64
	resent    int
	hedged    int

	lastProgress float64
	finished     bool
	finishedAt   float64 // when the last chunk committed
	err          error
	exitQ        *simproc.Queue[int]
}

// Run drives one striped upload to completion inside the calling
// simulation process. It spawns one sub-process per path, waits for the
// chunk ledger to drain (or fail), performs the Commit, and returns the
// deterministic per-path report.
func Run(p *simproc.Proc, spec Spec, paths []Path, env Env) (Report, error) {
	if spec.Chunk <= 0 {
		spec.Chunk = core.DefaultResumeChunk
	}
	if len(paths) == 0 {
		return Report{}, fmt.Errorf("multipath: no paths")
	}
	if spec.Name == "" || spec.Size <= 0 {
		return Report{}, fmt.Errorf("multipath: spec needs a name and positive size")
	}
	sizes := Layout(spec.Size, spec.Chunk, len(paths), tailSplit)
	n := len(sizes)
	st := &state{
		spec:         spec,
		env:          env,
		chunks:       make([]chunk, n),
		pending:      n,
		dupBudget:    hedgeMaxFrac * spec.Size,
		lastProgress: float64(p.Now()),
		exitQ:        simproc.NewQueue[int](p.Runner()),
	}
	for i := range st.chunks {
		st.chunks[i] = chunk{size: sizes[i], owner: -1, committedBy: -1}
	}
	for _, ph := range paths {
		if ph.Upload == nil {
			return Report{}, fmt.Errorf("multipath: path %d has no uploader", ph.ID)
		}
		st.paths = append(st.paths, &pathState{path: ph, up: ph.Upload, current: -1})
	}

	start := float64(p.Now())
	r := p.Runner()
	for _, ps := range st.paths {
		ps := ps
		env.Trace.Emit("mp.path.start", map[string]any{
			tracelog.AttrPath: ps.path.ID, tracelog.AttrRoute: ps.path.Route.String(),
		})
		r.Go(fmt.Sprintf("mp:%s:path%d", spec.Name, ps.path.ID), func(pp *simproc.Proc) {
			pp.SetScope(FlowScope(spec.Name))
			st.runPath(pp, ps)
		})
	}
	if env.Budget != nil && env.Abort != nil {
		r.Go(fmt.Sprintf("mp:%s:watchdog", spec.Name), func(pp *simproc.Proc) {
			st.watchLanes(pp)
		})
	}
	for range st.paths {
		st.exitQ.Pop(p)
	}
	if st.err == nil && st.done < n {
		st.err = fmt.Errorf("multipath: %d/%d chunks landed: %w", st.done, n, ErrNoPath)
	}
	if st.err == nil && env.Commit != nil {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = PartName(spec.Name, i)
		}
		if err := env.Commit(p, parts); err != nil {
			st.err = fmt.Errorf("multipath: commit: %w", err)
		}
	}
	// Seconds measures first dispatch to last chunk commit — the data
	// plane. An unaborted hedge loser draining after the commit (or the
	// compose control call) is not transfer time.
	end := float64(p.Now())
	if st.finished && st.err == nil && st.finishedAt > 0 {
		end = st.finishedAt
	}
	rep := st.report(end - start)
	env.Trace.Emit("mp.transfer.done", map[string]any{
		"name": spec.Name, "bytes": spec.Size, "seconds": rep.Seconds,
		"chunks": n, "duplicate": rep.DuplicateBytes, "ok": st.err == nil,
	})
	return rep, st.err
}

func (st *state) usable(ps *pathState, existing bool) bool {
	if st.env.Usable == nil {
		return true
	}
	return st.env.Usable(ps.path.Route, existing)
}

// stalled fails the whole transfer when nothing has committed for
// stallTimeout; it returns true once the transfer is finished (stalled
// now or finished earlier) so pollers know to exit.
func (st *state) stalled(p *simproc.Proc) bool {
	if st.finished {
		return true
	}
	if float64(p.Now())-st.lastProgress > stallTimeout {
		st.fail(fmt.Errorf("multipath: no chunk committed in %.0fs: %w", stallTimeout, ErrNoPath))
		return true
	}
	return false
}

func (st *state) fail(err error) {
	if st.err == nil {
		st.err = err
	}
	st.finished = true
}

// claim hands the path its next chunk: the lowest pending one, or — at
// the tail, under the duplication budget — a straggler's in-flight
// chunk as a hedged duplicate. ok=false means nothing to do right now.
func (st *state) claim(ps *pathState, now float64) (cid int, dup bool, ok bool) {
	if st.finished {
		return 0, false, false
	}
	if st.pending > 0 {
		for i := range st.chunks {
			if st.chunks[i].status != chunkPending {
				continue
			}
			if st.chunks[i].dispatches >= maxDispatch {
				st.fail(fmt.Errorf("multipath: chunk %d failed %d dispatches", i, maxDispatch))
				return 0, false, false
			}
			st.chunks[i].status = chunkInflight
			st.chunks[i].owner = ps.path.ID
			st.chunks[i].dispatches++
			st.pending--
			return i, false, true
		}
	}
	return st.claimHedge(ps, now)
}

// claimHedge picks a straggler's in-flight chunk to duplicate. Only
// paths at or below the straggler quantile of observed rates (or
// draining/retired ones) are targets, the claimant must be strictly
// faster, and every duplicate reserves a full chunk from the budget.
func (st *state) claimHedge(ps *pathState, now float64) (int, bool, bool) {
	if st.done+st.pending >= len(st.chunks) {
		return 0, false, false // nothing in flight
	}
	rates := make([]float64, 0, len(st.paths))
	for _, q := range st.paths {
		if !q.retired {
			rates = append(rates, q.rate(now))
		}
	}
	if len(rates) == 0 {
		return 0, false, false
	}
	cut := stats.Quantile(rates, stragglerQuantile)
	myRate := ps.rate(now)
	best, bestRate := -1, math.Inf(1)
	for i := range st.chunks {
		c := &st.chunks[i]
		if c.status != chunkInflight || c.owner == ps.path.ID {
			continue
		}
		owner := st.pathByID(c.owner)
		if owner == nil || owner.current != i {
			continue // a duplicate dispatch already owns the primary slot
		}
		or := owner.rate(now)
		slow := owner.retired || owner.draining || (or <= cut && myRate > or)
		if !slow {
			continue
		}
		if c.size > st.dupBudget || c.dispatches >= maxDispatch {
			continue
		}
		if or < bestRate {
			best, bestRate = i, or
		}
	}
	if best < 0 {
		return 0, false, false
	}
	st.dupBudget -= st.chunks[best].size
	st.chunks[best].dispatches++
	st.hedged++
	ps.steals++
	return best, true, true
}

func (st *state) pathByID(id int) *pathState {
	for _, q := range st.paths {
		if q.path.ID == id {
			return q
		}
	}
	return nil
}

// rate is the path's observed committed throughput as of now, counting
// time already spent on the chunk currently in flight (a straggler
// stuck mid-chunk reads as slow, not unknown); +Inf before any work.
func (ps *pathState) rate(now float64) float64 {
	busy := ps.busy
	if ps.current >= 0 {
		busy += now - ps.startedAt
	}
	if busy <= 0 {
		return math.Inf(1)
	}
	return ps.bytes / busy
}

// commit marks a chunk landed; reports whether this was the first
// completion (false: the caller lost a hedge race).
func (st *state) commit(ps *pathState, cid int, now float64) bool {
	c := &st.chunks[cid]
	if c.status == chunkDone {
		return false
	}
	c.status = chunkDone
	c.committedBy = ps.path.ID
	st.done++
	st.lastProgress = now
	ps.bytes += c.size
	ps.chunks = append(ps.chunks, cid)
	if st.done == len(st.chunks) {
		st.finished = true
		st.finishedAt = now
	}
	return true
}

// release returns a failed chunk to the pending set — unless some other
// dispatch of it is still in flight (the hedge may yet land it).
func (st *state) release(ps *pathState, cid int) {
	c := &st.chunks[cid]
	if c.status != chunkInflight {
		return
	}
	if c.owner == ps.path.ID {
		for _, q := range st.paths {
			if q != ps && q.current == cid {
				c.owner = q.path.ID // promote the surviving duplicate
				return
			}
		}
		c.status = chunkPending
		c.owner = -1
		st.pending++
		st.resent++
	}
}

// abortOthers cancels surviving duplicates of a just-committed chunk.
func (st *state) abortOthers(ps *pathState, cid int) {
	if st.env.Abort == nil {
		return
	}
	for _, q := range st.paths {
		if q != ps && q.current == cid {
			// Both levers: kill the loser's live flows AND raise its
			// checkpoint's cooperative latch, so a dispatch idling between
			// flows (polling a detour relay, waiting on a daemon ack) still
			// observes the abort at its next safe point.
			q.ck.RequestAbort()
			st.env.Abort(q.path)
		}
	}
}

// runPath is one lane's whole life: claim, upload (with one in-place
// resume retry, none after a watchdog stall), commit or release, back
// off on failure, drain while the route is withdrawn, exit when the
// ledger is finished.
func (st *state) runPath(p *simproc.Proc, ps *pathState) {
	defer func() {
		ps.current = -1
		st.exitQ.Push(ps.path.ID)
	}()
	backoff := 0.5
	for !st.finished {
		if ps.retired {
			return
		}
		if !st.usable(ps, false) {
			if !ps.draining {
				ps.draining = true
				ps.drains++
				st.env.Trace.Emit("mp.path.drain", map[string]any{
					tracelog.AttrPath: ps.path.ID, tracelog.AttrRoute: ps.path.Route.String(),
				})
			}
			if st.stalled(p) {
				return
			}
			p.Sleep(simclock.Duration(1))
			continue
		}
		if ps.draining {
			ps.draining = false
			st.env.Trace.Emit("mp.path.resume", map[string]any{
				tracelog.AttrPath: ps.path.ID, tracelog.AttrRoute: ps.path.Route.String(),
			})
		}
		cid, dup, ok := st.claim(ps, float64(p.Now()))
		if !ok {
			if st.finished || st.stalled(p) {
				return
			}
			p.Sleep(simclock.Duration(0.25))
			continue
		}
		part := PartName(st.spec.Name, cid)
		sz := st.chunks[cid].size
		ps.current = cid
		ps.ck.NextObject()
		st.env.Trace.Emit("mp.chunk.dispatch", map[string]any{
			tracelog.AttrPath: ps.path.ID, tracelog.AttrChunk: cid,
			tracelog.AttrRoute: ps.path.Route.String(), "bytes": sz, "hedge": dup,
		})
		var err error
		for tries := 0; ; tries++ {
			t0 := float64(p.Now())
			ps.startedAt = t0
			// A latch raised by a previous abort (lane watchdog or a lost
			// hedge) must not poison this fresh dispatch.
			ps.ck.ResetAbort()
			ps.stalled = false
			err = ps.up.UploadChunk(p, part, sz, &ps.ck)
			ps.busy += float64(p.Now()) - t0
			if err == nil || st.chunks[cid].status == chunkDone || tries >= 1 ||
				ps.stalled || st.finished || !st.usable(ps, true) {
				break
			}
			// One in-place retry: the checkpoint resumes from the DTN
			// partial and the provider session, so a transient hiccup
			// costs a round trip, not the chunk.
			p.Sleep(simclock.Duration(1))
		}
		ps.current = -1
		if err == nil {
			if st.commit(ps, cid, float64(p.Now())) {
				ps.consec = 0
				backoff = 0.5
				st.env.Trace.Emit("mp.chunk.done", map[string]any{
					tracelog.AttrPath: ps.path.ID, tracelog.AttrChunk: cid,
					tracelog.AttrRoute: ps.path.Route.String(), "bytes": sz,
				})
				st.abortOthers(ps, cid)
			} else {
				// Lost the hedge race after finishing anyway: the whole
				// chunk crossed the wire twice.
				ps.dup += sz
			}
			continue
		}
		if st.chunks[cid].status == chunkDone {
			// The winner committed and (usually) aborted us; the payload
			// this dispatch moved was duplicate work. DuplicateBytes
			// counts payload, not wire bytes — the high-water marks of a
			// detour's two hops cover the SAME payload prefix, so the
			// farthest mark is what was moved and lost, matching the
			// one-chunk charge for a loser that finished (above).
			ps.dup += math.Max(ps.ck.Hop1High, ps.ck.Hop2High)
			continue
		}
		ps.fails++
		st.env.Trace.Emit("mp.chunk.fail", map[string]any{
			tracelog.AttrPath: ps.path.ID, tracelog.AttrChunk: cid,
			tracelog.AttrRoute: ps.path.Route.String(), "err": err.Error(),
		})
		st.release(ps, cid)
		ps.consec++
		if ps.consec >= maxPathFails {
			ps.retired = true
			st.env.Trace.Emit("mp.path.retire", map[string]any{
				tracelog.AttrPath: ps.path.ID, tracelog.AttrRoute: ps.path.Route.String(),
			})
			st.checkAllRetired()
			return
		}
		p.Sleep(simclock.Duration(backoff))
		if backoff < 8 {
			backoff *= 2
		}
	}
}

// watchLanes is the per-lane gray-failure watchdog: any lane whose
// current dispatch has outlived its Env.Budget is aborted. The abort
// surfaces in the lane as a reset; the normal failure path releases the
// chunk to a healthier lane, and a lane that keeps stalling retires
// through the consecutive-failure counter. A stalled dispatch is not
// retried in place: the lane gives the chunk up at once. The budget
// clock restarts on each dispatch try (startedAt), so an in-place resume
// retry after an ordinary error gets a fresh window.
func (st *state) watchLanes(p *simproc.Proc) {
	for !st.finished {
		p.Sleep(simclock.Duration(laneWatchInterval))
		now := float64(p.Now())
		for _, ps := range st.paths {
			if ps.current < 0 || ps.retired {
				continue
			}
			budget := st.env.Budget(ps.path.Route, st.chunks[ps.current].size)
			if budget <= 0 || now-ps.startedAt <= budget {
				continue
			}
			st.env.Trace.Emit("mp.lane.stall", map[string]any{
				tracelog.AttrPath: ps.path.ID, tracelog.AttrChunk: ps.current,
				tracelog.AttrRoute: ps.path.Route.String(),
			})
			// Flow kill plus cooperative latch: a gray-slow dispatch may
			// have no client-side flow in flight to kill (the slowness is a
			// peer process grinding), so the latch is what actually stops it.
			ps.stalled = true
			ps.ck.RequestAbort()
			st.env.Abort(ps.path)
		}
	}
}

// checkAllRetired fails the transfer when no lane remains.
func (st *state) checkAllRetired() {
	for _, q := range st.paths {
		if !q.retired {
			return
		}
	}
	st.fail(fmt.Errorf("multipath: every path retired: %w", ErrNoPath))
}
