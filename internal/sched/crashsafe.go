// Crash-consistent control plane: the ControlJournal is a write-ahead
// log of every scheduler decision that matters for recovery — job
// submissions, attempt starts, checkpoint watermarks (DTN partial +
// provider session token), cap-slot and retry-token spends, multipath
// lane assignments, and terminal finishes. Records ride the
// internal/journal CRC32C framing, so a replay after any crash
// recovers exactly the longest valid prefix: a torn tail is truncated,
// a bit-rotted record stops the scan, and everything before it is
// trusted.
//
// Replay folds records idempotently into (finished results, pending
// jobs with restored checkpoints, spent retry tokens). A finish record
// seen twice — the classic crash-between-commit-and-ack window — is
// counted once; an attempt whose finish record died with the process
// is resubmitted with its journaled checkpoint, reattaches the
// provider session via sdk.SessionResumer, and its commit replays
// idempotently under the same attempt ID (cloudsim's X-Attempt-Id
// table), so the provider materializes each object exactly once.
//
// The journal doubles as the crash *injector*: the enumerated crash
// points below are reached at their call sites in the scheduler, and
// an armed plan kills the control plane — appends become no-ops, the
// in-flight transfer is cooperatively aborted, Drain wakes — at the
// chosen occurrence of the chosen point.
package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"

	"detournet/internal/core"
	"detournet/internal/journal"
	"detournet/internal/sdk"
)

// Enumerated control-plane crash points. The crashsafe replay sweeps
// all of them; the coverage test asserts every one is actually reached.
const (
	// CrashAfterSubmit dies after a submit record hits the journal but
	// before the job runs.
	CrashAfterSubmit = "after-submit"
	// CrashBeforeAttempt dies with the job claimed off the queue but
	// its attempt record unwritten.
	CrashBeforeAttempt = "before-attempt"
	// CrashAfterAttempt dies with the attempt record written but no
	// transfer started.
	CrashAfterAttempt = "after-attempt"
	// CrashTornAppend dies midway through writing a journal record —
	// the torn tail replay must truncate.
	CrashTornAppend = "torn-append"
	// CrashMidHop1 dies mid-transfer while bytes move on the first hop
	// (client→DTN staging, no provider session yet).
	CrashMidHop1 = "mid-hop1"
	// CrashMidHop2 dies mid-transfer while the provider session is live
	// (direct upload or detour relay).
	CrashMidHop2 = "mid-hop2"
	// CrashBeforeFinish dies after the provider committed the object
	// but before the finish record — recovery must not double-commit.
	CrashBeforeFinish = "before-finish"
	// CrashAfterFinish dies right after the finish record.
	CrashAfterFinish = "after-finish"
	// CrashDuringCompact dies at the start of a journal compaction,
	// before the snapshot swap — the uncompacted log must still replay.
	CrashDuringCompact = "during-compact"
)

// CrashPoints enumerates every control-plane crash point, in the order
// a job's life encounters them.
func CrashPoints() []string {
	return []string{
		CrashAfterSubmit, CrashBeforeAttempt, CrashAfterAttempt,
		CrashTornAppend, CrashMidHop1, CrashMidHop2,
		CrashBeforeFinish, CrashAfterFinish, CrashDuringCompact,
	}
}

// ErrCrashKilled marks results produced after the armed crash point
// fired: the control plane is "dead", the result exists only so the
// worker can unwind. Harnesses discard them.
var ErrCrashKilled = errors.New("sched: control plane killed at crash point")

// Journal record types.
const (
	recSubmit byte = iota + 1
	recAttempt
	recCkpt
	recCap
	recRetry
	recLanes
	recFinish
	recSnapshot
)

// submitRec journals one admitted job.
type submitRec struct {
	Seq int64
	Job Job
}

// attemptRec journals one attempt start.
type attemptRec struct {
	Seq       int64
	Name      string
	Attempt   int
	AttemptID string
	RouteKind int
	RouteVia  string
}

// ckptRec journals the in-flight checkpoint at a progress watermark:
// everything a restarted scheduler needs to resume mid-transfer — the
// DTN holding hop-1 bytes, the provider session token, and the
// accounting baselines.
type ckptRec struct {
	Seq        int64
	Name       string
	Hop1Via    string
	Hop1High   float64
	HasSession bool
	Session    sdk.SessionToken
	Hop2High   float64
	Resumed    float64
	Rewritten  float64
	Repairs    int
	Watermark  float64
}

// capRec journals a cap-slot acquire or release.
type capRec struct {
	Provider, Via string
	Acquire       bool
}

// retryRec journals one spent retry token, or (Earned > 0) the tokens
// a success earned back.
type retryRec struct {
	Provider string
	Earned   float64 `json:",omitempty"`
}

// lanesRec journals a multipath attempt's lane assignment: which
// routes carried how many stripe chunks.
type lanesRec struct {
	Seq    int64
	Name   string
	Paths  []string
	Chunks []int
}

// finishRec journals a terminal result.
type finishRec struct {
	Seq       int64
	Name      string
	OK        bool
	Err       string
	RouteKind int
	RouteVia  string
	Seconds   float64
	Attempts  int
	CacheHit  bool
	Resumed   float64
	Rewritten float64
	Repairs   int
	Hedged    bool
	HedgeWon  bool
	Reroutes  int
	Parked    float64
	Late      bool
	Degraded  bool
}

// snapshotRec is a compaction snapshot: the complete folded state, so
// replay of (snapshot + tail) equals replay of the full log.
type snapshotRec struct {
	NextSeq    int64
	Pending    []PendingJob
	Finished   []finishedJob
	RetrySpent map[string]float64
	CapsHeld   map[string]int
}

// finishedJob pairs a finish record with its job for the snapshot (a
// compacted log no longer has the submit record to join against).
type finishedJob struct {
	Job    Job
	Finish finishRec
}

// PendingJob is one recovered in-flight job: submitted (and possibly
// mid-attempt) when the control plane died, with no finish record.
type PendingJob struct {
	Seq           int64
	Job           Job
	AttemptID     string
	PriorAttempts int
	// HasCkpt marks Ck as a journaled mid-transfer checkpoint to
	// restore; without one the job simply restarts.
	HasCkpt bool
	Ck      ckptRec
}

// Checkpoint reconstitutes the journaled checkpoint, ready to hand to
// a ResumableExecutor: the restored session token reattaches via
// sdk.SessionResumer, the restored Hop1Via reuses the DTN partial.
func (pj PendingJob) Checkpoint() core.Checkpoint {
	return core.Checkpoint{
		Hop1Via:        pj.Ck.Hop1Via,
		Hop1High:       pj.Ck.Hop1High,
		HasSession:     pj.Ck.HasSession,
		Session:        pj.Ck.Session,
		Hop2High:       pj.Ck.Hop2High,
		BytesResumed:   pj.Ck.Resumed,
		BytesRewritten: pj.Ck.Rewritten,
		AttemptID:      pj.AttemptID,
		ChunkRepairs:   pj.Ck.Repairs,
	}
}

// Recovered is what a journal replay yields.
type Recovered struct {
	// Finished holds the rebuilt terminal results, in journal order,
	// with duplicate finish records (same seq) counted once.
	Finished []Result
	// Pending holds submitted jobs with no finish record, by seq order.
	Pending []PendingJob
	// RetrySpent is, per provider, the journaled retry tokens spent and
	// not earned back, for health.Tracker.RestoreSpentRetries.
	RetrySpent map[string]float64
	// CapsHeld is the per-"provider|via" count of cap slots held at the
	// crash (informational: a restart's slots are all free).
	CapsHeld map[string]int
	// DupFinishes counts duplicate finish records skipped during the
	// fold — replayed attempts that must not double-count.
	DupFinishes int
	// Records and TruncatedBytes describe the replay itself.
	Records        int
	TruncatedBytes int
}

// foldState is the journal's folded meaning, maintained live (so
// compaction can snapshot it) and rebuilt on replay.
type foldState struct {
	nextSeq    int64
	seqByName  map[string]int64
	jobs       map[int64]Job
	pending    map[int64]*PendingJob
	finished   []finishedJob
	finishSeqs map[int64]bool
	retrySpent map[string]float64
	capsHeld   map[string]int
	dupFinish  int

	// Scratch reused by every snapshot.
	seqBuf  []int64
	pendBuf []PendingJob
}

func newFoldState() *foldState {
	return &foldState{
		seqByName:  make(map[string]int64),
		jobs:       make(map[int64]Job),
		pending:    make(map[int64]*PendingJob),
		finishSeqs: make(map[int64]bool),
		retrySpent: make(map[string]float64),
		capsHeld:   make(map[string]int),
	}
}

// apply decodes one replayed record and folds it: replay's half of the
// fold. A record that does not decode, or has an unknown type, is an
// error.
func (st *foldState) apply(r journal.Rec) error {
	switch r.Type {
	case recSubmit:
		return replayAs(r.Data, st.foldSubmit)
	case recAttempt:
		return replayAs(r.Data, st.foldAttempt)
	case recCkpt:
		return replayAs(r.Data, st.foldCkpt)
	case recCap:
		return replayAs(r.Data, st.foldCap)
	case recRetry:
		return replayAs(r.Data, st.foldRetry)
	case recLanes:
		// Lane state is observational (the stripe parts are provider
		// objects; a recovered multipath job re-stripes); nothing folds.
		return replayAs(r.Data, func(*lanesRec) {})
	case recFinish:
		return replayAs(r.Data, st.foldFinish)
	case recSnapshot:
		return replayAs(r.Data, st.foldSnapshot)
	}
	return fmt.Errorf("sched: unknown journal record type %d", r.Type)
}

// replayAs unmarshals one record payload as a T and folds it.
func replayAs[T any](data []byte, fold func(*T)) error {
	var m T
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	fold(&m)
	return nil
}

// The fold methods fold one typed record: the value a live append was
// handed, or the value replay decoded. Both paths share these bodies, so
// the live state is the replay fold of what the device holds. Folding is
// idempotent where replay can see a record twice (a finish re-journaled
// after a crash-before-ack).

func (st *foldState) foldSubmit(m *submitRec) {
	if _, ok := st.seqByName[m.Job.Name]; ok {
		return // resubmission of a recovered job: already folded
	}
	job := m.Job
	job.AltProviders = slices.Clone(job.AltProviders) // alias no caller memory
	st.seqByName[job.Name] = m.Seq
	st.jobs[m.Seq] = job
	st.pending[m.Seq] = &PendingJob{Seq: m.Seq, Job: job}
	if m.Seq >= st.nextSeq {
		st.nextSeq = m.Seq + 1
	}
}

func (st *foldState) foldAttempt(m *attemptRec) {
	if pj := st.pending[m.Seq]; pj != nil {
		if m.Attempt > pj.PriorAttempts {
			pj.PriorAttempts = m.Attempt
		}
		pj.AttemptID = m.AttemptID
	}
}

func (st *foldState) foldCkpt(m *ckptRec) {
	if pj := st.pending[m.Seq]; pj != nil {
		pj.HasCkpt, pj.Ck = true, *m
	}
}

func (st *foldState) foldCap(m *capRec) {
	k := m.Provider + "|" + m.Via
	if m.Acquire {
		st.capsHeld[k]++
	} else if st.capsHeld[k]--; st.capsHeld[k] <= 0 {
		delete(st.capsHeld, k)
	}
}

func (st *foldState) foldRetry(m *retryRec) {
	if m.Earned <= 0 {
		st.retrySpent[m.Provider]++
	} else if st.retrySpent[m.Provider] -= m.Earned; st.retrySpent[m.Provider] <= 0 {
		delete(st.retrySpent, m.Provider)
	}
}

func (st *foldState) foldFinish(m *finishRec) {
	if st.finishSeqs[m.Seq] {
		st.dupFinish++ // idempotent replay: count the attempt once
		return
	}
	st.finishSeqs[m.Seq] = true
	job := st.jobs[m.Seq]
	if pj := st.pending[m.Seq]; pj != nil {
		job = pj.Job
	}
	st.finished = append(st.finished, finishedJob{Job: job, Finish: *m})
	delete(st.pending, m.Seq)
}

func (st *foldState) foldSnapshot(m *snapshotRec) {
	*st = *newFoldState()
	st.nextSeq = m.NextSeq
	for i := range m.Pending {
		pj := m.Pending[i]
		st.seqByName[pj.Job.Name] = pj.Seq
		st.jobs[pj.Seq] = pj.Job
		st.pending[pj.Seq] = &pj
	}
	for _, fj := range m.Finished {
		st.seqByName[fj.Job.Name] = fj.Finish.Seq
		st.jobs[fj.Finish.Seq] = fj.Job
		st.finishSeqs[fj.Finish.Seq] = true
		st.finished = append(st.finished, fj)
	}
	for k, v := range m.RetrySpent {
		st.retrySpent[k] = v
	}
	for k, v := range m.CapsHeld {
		st.capsHeld[k] = v
	}
}

// snapshot renders the folded state as a compaction record, to be
// encoded on the spot: it shares the state's slices and maps, and its
// Pending reuses one buffer from call to call.
func (st *foldState) snapshot() snapshotRec {
	snap := snapshotRec{
		NextSeq:    st.nextSeq,
		RetrySpent: st.retrySpent,
		CapsHeld:   st.capsHeld,
	}
	if len(st.finished) > 0 {
		snap.Finished = st.finished
	}
	if len(st.pending) > 0 {
		st.pendBuf = st.pendingBySeq(st.pendBuf[:0])
		snap.Pending = st.pendBuf
	}
	return snap
}

// pendingBySeq appends the pending jobs to dst in seq order.
func (st *foldState) pendingBySeq(dst []PendingJob) []PendingJob {
	seqs := st.seqBuf[:0]
	for seq := range st.pending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		dst = append(dst, *st.pending[seq])
	}
	st.seqBuf = seqs
	return dst
}

// recovered renders the folded state for the restart path.
func (st *foldState) recovered() *Recovered {
	rec := &Recovered{
		RetrySpent:  st.retrySpent,
		CapsHeld:    st.capsHeld,
		DupFinishes: st.dupFinish,
		Pending:     st.pendingBySeq(nil),
	}
	for _, fj := range st.finished {
		rec.Finished = append(rec.Finished, fj.result())
	}
	return rec
}

// result rebuilds the terminal Result a finish record encoded.
func (fj finishedJob) result() Result {
	m := fj.Finish
	res := Result{
		Job:     fj.Job,
		Route:   core.Route{Kind: core.RouteKind(m.RouteKind), Via: m.RouteVia},
		Seconds: m.Seconds, Attempts: m.Attempts, CacheHit: m.CacheHit,
		Resumed: m.Resumed, Rewritten: m.Rewritten, ChunkRepairs: m.Repairs,
		Hedged: m.Hedged, HedgeWon: m.HedgeWon,
		Reroutes: m.Reroutes, Parked: m.Parked,
		Late: m.Late, Degraded: m.Degraded,
	}
	if !m.OK {
		res.Err = fmt.Errorf("replayed: %s", m.Err)
	}
	return res
}

// ControlJournal is the scheduler's write-ahead log plus the crash
// injector acting on it. All methods are safe for concurrent use.
type ControlJournal struct {
	mu    sync.Mutex
	w     *journal.Writer
	state *foldState

	// Compaction: every compactEvery finishes, the folded state is
	// snapshotted and the device swapped to (snapshot) alone.
	compactEvery int
	sinceCompact int
	compactions  int
	truncated    int

	// Crash plan: point → remaining occurrences before the kill.
	plan    map[string]int
	hits    map[string]int
	tornArm bool
	killed  bool
	onKill  func()

	// recoveredMode marks a journal opened over prior records: this
	// incarnation is a restart, and the scheduler prechecks every
	// resubmitted job against the provider — even names whose records
	// were lost past a corrupted byte.
	recoveredMode bool

	// Degraded mode: when the device stays full even after an emergency
	// compaction, the journal stops persisting and keeps folding records
	// in memory only — the live process keeps its state and keeps
	// serving, at the cost of recovery fidelity after a crash. Sticky
	// for the incarnation; onDegraded fires exactly once on entry.
	degraded       bool
	droppedAppends int
	enospcSaves    int
	onDegraded     func()
}

// defaultCompactEvery is how many finish records trigger a compaction.
const defaultCompactEvery = 16

// NewControlJournal opens (or creates) a control journal on dev,
// replaying whatever the device already holds: a torn tail is
// truncated in place, and the folded state — finished results, pending
// jobs with restored checkpoints, spent retry tokens — is returned for
// the restart path. A fresh device yields an empty Recovered.
func NewControlJournal(dev journal.Device) (*ControlJournal, *Recovered, error) {
	recs, truncated, err := journal.Replay(dev)
	if err != nil {
		return nil, nil, fmt.Errorf("sched: journal replay: %w", err)
	}
	st, applied := foldRecords(recs)
	cj := &ControlJournal{
		w: journal.NewWriter(dev), state: st,
		compactEvery: defaultCompactEvery,
		plan:         make(map[string]int),
		hits:         make(map[string]int),
	}
	rec := st.recovered()
	rec.Records = applied
	rec.TruncatedBytes = truncated
	cj.truncated = truncated
	cj.recoveredMode = applied > 0 || truncated > 0
	return cj, rec, nil
}

// foldRecords folds replayed records in order and returns the state
// and how many records it applied. A structurally valid record that
// does not decode is treated like rot: the prefix before it is trusted,
// the rest dropped.
func foldRecords(recs []journal.Rec) (*foldState, int) {
	st := newFoldState()
	for i, r := range recs {
		if err := st.apply(r); err != nil {
			return st, i
		}
	}
	return st, len(recs)
}

// RecoveredMode reports whether this journal incarnation replayed
// prior records — i.e. the scheduler above it is a crash restart.
func (cj *ControlJournal) RecoveredMode() bool {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.recoveredMode
}

// OnKill registers the callback the crash plan fires exactly once when
// it kills the control plane (the scheduler uses it to wake Drain).
func (cj *ControlJournal) OnKill(fn func()) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.onKill = fn
}

// Arm schedules a kill at the occurrence-th (1-based) hit of the named
// crash point.
func (cj *ControlJournal) Arm(point string, occurrence int) {
	if occurrence < 1 {
		occurrence = 1
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if point == CrashTornAppend {
		cj.tornArm = true
	}
	cj.plan[point] = occurrence
}

// disarm cancels a pending kill at the named point.
func (cj *ControlJournal) disarm(point string) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	delete(cj.plan, point)
	if point == CrashTornAppend {
		cj.tornArm = false
	}
}

// TornJournal is the faults.CrashControl hook: arming is equivalent to
// arming the torn-append crash point — the next journal append tears
// mid-record and the control plane dies with it.
func (cj *ControlJournal) TornJournal(active bool) {
	if active {
		cj.Arm(CrashTornAppend, 1)
	} else {
		cj.disarm(CrashTornAppend)
	}
}

// JournalENOSPC is the faults hook for journal disk exhaustion:
// arming clamps the device's capacity at its current size, so every
// further append hits ErrNoSpace until compaction shrinks the log (or
// the journal degrades); disarming restores the configured capacity.
// Devices without capacity support ignore the hook.
func (cj *ControlJournal) JournalENOSPC(active bool) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	type clamper interface {
		ClampCapacity()
		UnclampCapacity()
	}
	c, ok := cj.w.Device().(clamper)
	if !ok {
		return
	}
	if active {
		c.ClampCapacity()
	} else {
		c.UnclampCapacity()
	}
}

// FlipJournalByte silently corrupts one byte of the journal device
// (the faults.BitRot hook). Replay will recover the valid prefix.
func (cj *ControlJournal) FlipJournalByte(rng *rand.Rand) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	type flipper interface{ FlipByte(off int) }
	f, ok := cj.w.Device().(flipper)
	if !ok {
		return
	}
	n := cj.w.Device().Size()
	if n <= 0 {
		return
	}
	f.FlipByte(rng.Intn(n))
}

// Killed reports whether the crash plan has fired.
func (cj *ControlJournal) Killed() bool {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.killed
}

// HitCount returns how many times the named crash point was reached
// (armed or not) — the coverage test's evidence.
func (cj *ControlJournal) HitCount(point string) int {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.hits[point]
}

// reachLocked marks one arrival at a crash point and fires the kill
// when the armed occurrence is reached. Returns whether the control
// plane is (now) dead — callers unwind without further journaling.
func (cj *ControlJournal) reachLocked(point string) bool {
	cj.hits[point]++
	if cj.killed {
		return true
	}
	left, armed := cj.plan[point]
	if !armed {
		return false
	}
	left--
	if left > 0 {
		cj.plan[point] = left
		return false
	}
	delete(cj.plan, point)
	cj.killLocked()
	return true
}

// killLocked flips the dead switch and fires the wake callback once.
// Callers hold cj.mu; the callback runs without it (it takes scheduler
// locks).
func (cj *ControlJournal) killLocked() {
	cj.killed = true
	fn := cj.onKill
	if fn != nil {
		cj.mu.Unlock()
		fn()
		cj.mu.Lock()
	}
}

// appendLocked writes one record, whose payload enc appends to the
// slice it is handed. It reports whether the caller must fold the
// record into the live state: a dead journal drops everything (the
// process is gone), and a torn-append arm tears this record mid-write
// and dies. Callers hold cj.mu.
func (cj *ControlJournal) appendLocked(typ byte, enc func([]byte) []byte) bool {
	if cj.killed {
		return false
	}
	if cj.tornArm {
		if cj.reachLocked(CrashTornAppend) {
			// Die mid-write: the device keeps a torn prefix of this
			// record, which replay must truncate.
			type tearer interface{ TornNextAppend(frac float64) }
			if t, ok := cj.w.Device().(tearer); ok {
				t.TornNextAppend(0.5)
				cj.w.Append(typ, enc) //nolint:errcheck // the torn write is the point
			}
			return false
		}
	}
	if !cj.degraded {
		err := cj.w.Append(typ, enc)
		if errors.Is(err, journal.ErrNoSpace) {
			// Compaction under pressure: the folded state is usually far
			// smaller than the raw log, so an emergency snapshot swap
			// frees space without losing anything, and the append retries
			// against the compacted log.
			if cerr := cj.compactLocked(); cerr == nil {
				if err = cj.w.Append(typ, enc); err == nil {
					cj.enospcSaves++
				}
			}
		}
		switch {
		case errors.Is(err, journal.ErrNoSpace):
			// Even the compacted state no longer fits. Losing the control
			// plane over a full journal device would turn a disk problem
			// into an outage, so degrade instead of crash: keep folding in
			// memory, surface a health warning, accept that a crash from
			// here recovers only up to the last persisted record.
			cj.enterDegradedLocked()
		case err != nil:
			panic(fmt.Sprintf("sched: journal append: %v", err))
		}
	}
	if cj.degraded {
		cj.droppedAppends++
	}
	return true
}

// enterDegradedLocked flips the journal into in-memory-only mode and
// fires the onDegraded warning callback once. Callers hold cj.mu; the
// callback runs without it (it may take health-tracker locks).
func (cj *ControlJournal) enterDegradedLocked() {
	if cj.degraded {
		return
	}
	cj.degraded = true
	fn := cj.onDegraded
	if fn != nil {
		cj.mu.Unlock()
		fn()
		cj.mu.Lock()
	}
}

// Degraded reports whether the journal has fallen back to in-memory
// folding because the device stayed full after compaction.
func (cj *ControlJournal) Degraded() bool {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.degraded
}

// DroppedAppends returns how many records were folded in memory only
// (degraded mode), invisible to any future replay.
func (cj *ControlJournal) DroppedAppends() int {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.droppedAppends
}

// ENOSPCSaves returns how many appends succeeded only because an
// emergency compaction freed space first.
func (cj *ControlJournal) ENOSPCSaves() int {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.enospcSaves
}

// OnDegraded registers the callback fired exactly once when the
// journal enters degraded mode (the scheduler surfaces it as a health
// warning).
func (cj *ControlJournal) OnDegraded(fn func()) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.onDegraded = fn
}

// NoteSubmit journals one admitted job, assigning (or, for a recovered
// resubmission, reusing) its sequence number, then reaches
// after-submit.
func (cj *ControlJournal) NoteSubmit(j Job) {
	cj.mu.Lock()
	if cj.killed {
		cj.mu.Unlock()
		return
	}
	if _, known := cj.state.seqByName[j.Name]; !known {
		m := submitRec{Seq: cj.state.nextSeq, Job: j}
		if cj.appendLocked(recSubmit, m.appendJSON) {
			cj.state.foldSubmit(&m)
		}
	}
	cj.reachLocked(CrashAfterSubmit)
	cj.mu.Unlock()
}

// SeqFor returns the journaled sequence number for a job name (-1 when
// the journal has never seen it).
func (cj *ControlJournal) SeqFor(name string) int64 {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	seq, ok := cj.state.seqByName[name]
	if !ok {
		return -1
	}
	return seq
}

// AttemptID returns the job's stable idempotency key: every attempt of
// (and every recovery of) one submitted job commits under the same
// key, so the provider materializes its object exactly once.
func (cj *ControlJournal) AttemptID(name string) string {
	seq := cj.SeqFor(name)
	if seq < 0 {
		return ""
	}
	return fmt.Sprintf("%s#%d", name, seq)
}

// TakeRecovered hands out (once) the recovered in-flight state for a
// resubmitted job: its prior attempt count and journaled checkpoint.
func (cj *ControlJournal) TakeRecovered(name string) *PendingJob {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	seq, ok := cj.state.seqByName[name]
	if !ok {
		return nil
	}
	pj := cj.state.pending[seq]
	if pj == nil || (pj.PriorAttempts == 0 && !pj.HasCkpt) {
		return nil
	}
	out := *pj
	pj.PriorAttempts, pj.HasCkpt = 0, false // hand out once
	return &out
}

// NoteAttempt journals one attempt start, bracketed by the
// before-attempt and after-attempt crash points. Returns whether the
// control plane died inside the bracket.
func (cj *ControlJournal) NoteAttempt(j Job, attempt int, route core.Route) bool {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.reachLocked(CrashBeforeAttempt) {
		return true
	}
	seq, ok := cj.state.seqByName[j.Name]
	if !ok {
		return cj.killed
	}
	m := attemptRec{
		Seq: seq, Name: j.Name, Attempt: attempt,
		AttemptID: fmt.Sprintf("%s#%d", j.Name, seq),
		RouteKind: int(route.Kind), RouteVia: route.Via,
	}
	if cj.appendLocked(recAttempt, m.appendJSON) {
		cj.state.foldAttempt(&m)
	}
	return cj.reachLocked(CrashAfterAttempt)
}

// NoteCkpt journals the live checkpoint at a progress watermark and
// evaluates the mid-transfer crash points: mid-hop1 while bytes move
// toward a DTN with no provider session, mid-hop2 once a session is
// live (direct chunks or the detour relay). A kill here raises the
// checkpoint's cooperative abort so the dead process's transfer
// unwinds instead of running to completion.
func (cj *ControlJournal) NoteCkpt(j Job, ck *core.Checkpoint, watermark float64) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.killed {
		// The process is dead; a transfer still making progress belongs
		// to it and must stop at its next safe point, not run to
		// completion on a ghost's behalf.
		ck.RequestAbort()
		return
	}
	seq, ok := cj.state.seqByName[j.Name]
	if !ok {
		return
	}
	m := ckptRec{
		Seq: seq, Name: j.Name,
		Hop1Via: ck.Hop1Via, Hop1High: ck.Hop1High,
		HasSession: ck.HasSession, Session: ck.Session, Hop2High: ck.Hop2High,
		Resumed: ck.BytesResumed, Rewritten: ck.BytesRewritten,
		Repairs: ck.ChunkRepairs, Watermark: watermark,
	}
	if cj.appendLocked(recCkpt, m.appendJSON) {
		cj.state.foldCkpt(&m)
	}
	point := CrashMidHop1
	if ck.HasSession || watermark >= j.Size {
		point = CrashMidHop2
	}
	if cj.reachLocked(point) {
		ck.RequestAbort()
	}
}

// NoteCap journals a cap-slot acquire or release.
func (cj *ControlJournal) NoteCap(provider, via string, acquire bool) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	m := capRec{Provider: provider, Via: via, Acquire: acquire}
	if cj.appendLocked(recCap, m.appendJSON) {
		cj.state.foldCap(&m)
	}
}

// NoteRetry journals one spent retry token.
func (cj *ControlJournal) NoteRetry(provider string) { cj.noteRetry(retryRec{Provider: provider}) }

// NoteRetryEarned journals the retry tokens a success earned back.
func (cj *ControlJournal) NoteRetryEarned(provider string, earned float64) {
	cj.noteRetry(retryRec{Provider: provider, Earned: earned})
}

func (cj *ControlJournal) noteRetry(m retryRec) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.appendLocked(recRetry, m.appendJSON) {
		cj.state.foldRetry(&m)
	}
}

// NoteLanes journals a multipath attempt's lane chunk assignment.
func (cj *ControlJournal) NoteLanes(name string, paths []string, chunks []int) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	seq, ok := cj.state.seqByName[name]
	if !ok {
		return
	}
	m := lanesRec{Seq: seq, Name: name, Paths: paths, Chunks: chunks}
	cj.appendLocked(recLanes, m.appendJSON) // lane state folds nothing
}

// NoteFinish journals a terminal result, bracketed (for successes) by
// the before-finish and after-finish crash points, and triggers
// compaction on cadence. The before-finish window is the classic one:
// the provider has committed, the journal has not — recovery resolves
// it through the idempotent attempt key and the provider pre-check.
func (cj *ControlJournal) NoteFinish(res *Result) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.killed {
		return
	}
	seq, ok := cj.state.seqByName[res.Job.Name]
	if !ok {
		return
	}
	if res.Err == nil && cj.reachLocked(CrashBeforeFinish) {
		return
	}
	m := finishRec{
		Seq: seq, Name: res.Job.Name, OK: res.Err == nil,
		RouteKind: int(res.Route.Kind), RouteVia: res.Route.Via,
		Seconds: res.Seconds, Attempts: res.Attempts, CacheHit: res.CacheHit,
		Resumed: res.Resumed, Rewritten: res.Rewritten, Repairs: res.ChunkRepairs,
		Hedged: res.Hedged, HedgeWon: res.HedgeWon,
		Reroutes: res.Reroutes, Parked: res.Parked,
		Late: res.Late, Degraded: res.Degraded,
	}
	if res.Err != nil {
		m.Err = res.Err.Error()
	}
	if cj.appendLocked(recFinish, m.appendJSON) {
		cj.state.foldFinish(&m)
	}
	if cj.killed { // torn-append fired on this very record
		return
	}
	if res.Err == nil && cj.reachLocked(CrashAfterFinish) {
		return
	}
	cj.sinceCompact++
	if cj.compactEvery > 0 && cj.sinceCompact >= cj.compactEvery {
		if cj.reachLocked(CrashDuringCompact) {
			return // died before the snapshot swap: the full log survives
		}
		if err := cj.compactLocked(); err != nil {
			cj.enterDegradedLocked()
		}
	}
}

// compactLocked snapshots the folded state and atomically swaps the
// device to (snapshot) alone. Callers hold cj.mu. A device refusing
// the swap for space is reported (the pressure path degrades on it);
// any other failure is a simulator bug and panics.
func (cj *ControlJournal) compactLocked() error {
	snap := cj.state.snapshot()
	if err := cj.w.Compact(recSnapshot, snap.appendJSON); err != nil {
		if errors.Is(err, journal.ErrNoSpace) {
			return err
		}
		panic(fmt.Sprintf("sched: journal compact: %v", err))
	}
	cj.sinceCompact = 0
	cj.compactions++
	// The device now holds the snapshot alone, whose replay counts no
	// duplicate finishes; so does the live state.
	cj.state.dupFinish = 0
	return nil
}

// Compactions returns how many snapshot swaps have run.
func (cj *ControlJournal) Compactions() int {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.compactions
}

// DeviceSize reports the journal device's current size in bytes under
// the journal lock, so samplers can poll it without racing appends and
// compaction swaps.
func (cj *ControlJournal) DeviceSize() int {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.w.Device().Size()
}

// journalRecName names the wire record types for the -journal dump.
var journalRecName = map[byte]string{
	recSubmit: "submit", recAttempt: "attempt", recCkpt: "ckpt",
	recCap: "cap", recRetry: "retry", recLanes: "lanes",
	recFinish: "finish", recSnapshot: "snapshot",
}

// WriteJournalDump reads a control journal file and prints the
// operator's view of it: the record census, any torn tail, and the
// folded state a restart would recover — finished jobs, pending jobs
// with their checkpoints and idempotent attempt IDs, spent retry
// tokens, held cap slots. It only reads the file: the scan and the fold
// run in memory, and the torn tail a restart would truncate stays on
// disk. The detourctl -journal flag drives this.
func WriteJournalDump(out io.Writer, path string) error {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: open %s: %w", path, err)
	}
	recs, valid := journal.Scan(b)
	counts := make(map[string]int)
	for _, r := range recs {
		name := journalRecName[r.Type]
		if name == "" {
			name = fmt.Sprintf("type-%d", r.Type)
		}
		counts[name]++
	}
	st, _ := foldRecords(recs)
	rec := st.recovered()
	fmt.Fprintf(out, "journal %s: %d records, %d B", path, len(recs), len(b))
	if valid < len(b) {
		fmt.Fprintf(out, " (torn tail: %d B past the last valid record)", len(b)-valid)
	}
	fmt.Fprintln(out)
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-9s %d\n", n, counts[n])
	}
	fmt.Fprintf(out, "recovered state: %d finished, %d pending, %d duplicate finishes\n",
		len(rec.Finished), len(rec.Pending), rec.DupFinishes)
	for _, pj := range rec.Pending {
		line := fmt.Sprintf("  pending %s seq=%d id=%s attempts=%d", pj.Job.Name, pj.Seq, pj.AttemptID, pj.PriorAttempts)
		if pj.HasCkpt {
			line += fmt.Sprintf(" ckpt[hop1=%s@%.0f session=%v watermark=%.0f]",
				pj.Ck.Hop1Via, pj.Ck.Hop1High, pj.Ck.HasSession, pj.Ck.Watermark)
		}
		fmt.Fprintln(out, line)
	}
	provs := make([]string, 0, len(rec.RetrySpent))
	for p := range rec.RetrySpent {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		fmt.Fprintf(out, "  retries spent %s: %g\n", p, rec.RetrySpent[p])
	}
	keys := make([]string, 0, len(rec.CapsHeld))
	for k := range rec.CapsHeld {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  cap held %s: %d\n", k, rec.CapsHeld[k])
	}
	return nil
}
