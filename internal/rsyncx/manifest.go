package rsyncx

import (
	"fmt"
	"math"
	"sort"

	"detournet/internal/simproc"
)

// Per-chunk hash manifests. A staged file's integrity used to be a
// single whole-file digest: one flipped bit anywhere meant discarding
// and re-sending the entire transfer. The manifest splits the file into
// ManifestChunk-sized pieces, each with its own checksum, so corruption
// repair re-fetches only the damaged chunks — the chunk-level integrity
// the file-synchronization literature argues for.
//
// Transfers in this simulator are sized-only (bytes are timed on the
// wire, not materialized), so chunk sums are derived deterministically
// from the whole-file digest: both ends compute the same expected sum
// per chunk, and the daemon reports a perturbed sum for any chunk its
// disk has marked rotten: the rot set is the manifest's source of
// truth.

// ManifestChunk is the chunk granularity of integrity manifests —
// deliberately the resumable-push chunk size, so a repair re-sends
// exactly one push chunk.
const ManifestChunk = DefaultPushChunk

// ChunkCount returns the number of manifest chunks covering size bytes.
func ChunkCount(size float64) int {
	if size <= 0 {
		return 1
	}
	return int(math.Ceil(size / ManifestChunk))
}

// ChunkSpan returns the byte length of chunk idx of a size-byte file.
func ChunkSpan(size float64, idx int) float64 {
	lo := float64(idx) * ManifestChunk
	if lo >= size {
		return 0
	}
	n := size - lo
	if n > ManifestChunk {
		n = ManifestChunk
	}
	return n
}

// ChunkSum is the expected checksum of chunk idx of a file with the
// given whole-file digest — synthetic (digest-derived) because sized
// transfers never materialize bytes.
func ChunkSum(md5 string, idx int) string {
	return Checksum([]byte(fmt.Sprintf("%s#%d", md5, idx)))
}

// rotSum is what the daemon reports for a chunk its disk corrupted:
// deterministic, and never equal to the healthy ChunkSum.
func rotSum(md5 string, idx int) string {
	return Checksum([]byte(fmt.Sprintf("rot!%s#%d", md5, idx)))
}

// --- daemon-side rot tracking ---

// RotChunk marks chunk idx of name as corrupted on the daemon's disk —
// the bit-rot injector's entry point. Rot never errors and is silent
// until a manifest or stat read detects it; it reports whether anything
// on disk was actually touched.
func (d *Daemon) RotChunk(name string, idx int) bool {
	if idx < 0 {
		return false
	}
	if st, ok := d.staging[name]; ok {
		if float64(idx)*ManifestChunk >= st.Size && !(st.Size == 0 && idx == 0) {
			return false
		}
		d.markRot(name, idx)
		return true
	}
	if pt, ok := d.partials[name]; ok {
		if float64(idx)*ManifestChunk >= pt.received {
			return false // chunk not on disk yet
		}
		d.markRot(name, idx)
		return true
	}
	return false
}

func (d *Daemon) markRot(name string, idx int) {
	if d.rot == nil {
		d.rot = make(map[string]map[int]bool)
	}
	if d.rot[name] == nil {
		d.rot[name] = make(map[int]bool)
	}
	d.rot[name][idx] = true
}

// StagedNames returns the names in the staging area, sorted — the
// deterministic iteration order fault injectors need.
func (d *Daemon) StagedNames() []string {
	out := make([]string, 0, len(d.staging))
	for name := range d.staging {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StagedChunks returns how many manifest chunks name's staged copy
// spans (0 when nothing is staged under that name).
func (d *Daemon) StagedChunks(name string) int {
	st, ok := d.staging[name]
	if !ok {
		return 0
	}
	return ChunkCount(st.Size)
}

// scrubPartial verifies an in-progress push against its chunk sums the
// way a restarted daemon fsck would: if any chunk below the confirmed
// offset is rotten (a torn in-place write, decayed media), the offset
// is clamped back to the start of the lowest bad chunk so the resume
// rewrites it, and those rot marks are cleared. Returns the trustworthy
// offset. This is what makes "a torn partial that passes length checks"
// impossible to resume from: Stat never reports bytes the disk cannot
// vouch for.
func (d *Daemon) scrubPartial(name string) float64 {
	pt, ok := d.partials[name]
	if !ok {
		return 0
	}
	bad := -1
	for idx := range d.rot[name] {
		if float64(idx)*ManifestChunk < pt.received && (bad < 0 || idx < bad) {
			bad = idx
		}
	}
	if bad < 0 {
		return pt.received
	}
	pt.received = float64(bad) * ManifestChunk
	for idx := range d.rot[name] {
		if float64(idx)*ManifestChunk >= pt.received {
			delete(d.rot[name], idx)
		}
	}
	if len(d.rot[name]) == 0 {
		delete(d.rot, name)
	}
	return pt.received
}

// manifest builds the chunk-sum list for a staged file.
func (d *Daemon) manifest(name string) ([]string, bool) {
	st, ok := d.staging[name]
	if !ok {
		return nil, false
	}
	n := ChunkCount(st.Size)
	sums := make([]string, n)
	for i := 0; i < n; i++ {
		if d.rot[name][i] {
			sums[i] = rotSum(st.MD5, i)
		} else {
			sums[i] = ChunkSum(st.MD5, i)
		}
	}
	return sums, true
}

// repairChunk lands a re-sent chunk over a rotten one.
func (d *Daemon) repairChunk(p *simproc.Proc, name string, idx int) error {
	st, ok := d.staging[name]
	if !ok {
		return fmt.Errorf("not staged: %s", name)
	}
	span := ChunkSpan(st.Size, idx)
	if span <= 0 && !(st.Size == 0 && idx == 0) {
		return fmt.Errorf("chunk %d out of range for %s", idx, name)
	}
	if d.DiskBps > 0 && span > 0 {
		p.Sleep(span / d.DiskBps)
	}
	if d.rot[name] != nil {
		delete(d.rot[name], idx)
		if len(d.rot[name]) == 0 {
			delete(d.rot, name)
		}
	}
	return nil
}

// --- wire ops ---

type manifestReq struct {
	Name string
}

type manifestResp struct {
	OK   bool
	Err  string
	Size float64
	MD5  string
	Sums []string
}

type repairChunkReq struct {
	Name  string
	Index int
	Bytes float64
}

// Manifest fetches the daemon's per-chunk checksums for a staged file.
// The wire cost is one control message plus ~33 bytes per sum, a
// rounding error next to the chunks themselves.
func (cl *Client) Manifest(p *simproc.Proc, name string) ([]string, error) {
	c, err := cl.dial(p)
	if err != nil {
		return nil, err
	}
	defer hangUp(c)
	if err := c.Send(p, manifestReq{Name: name}, ctrlBytes); err != nil {
		return nil, err
	}
	msg, err := c.Recv(p)
	if err != nil {
		return nil, err
	}
	mr, ok := msg.Payload.(manifestResp)
	if !ok {
		return nil, fmt.Errorf("rsyncx: expected manifest response, got %T", msg.Payload)
	}
	if !mr.OK {
		return nil, fmt.Errorf("rsyncx: manifest: %s", mr.Err)
	}
	return mr.Sums, nil
}

// RepairChunk re-sends one manifest chunk of a staged file, paying only
// that chunk's bytes on the wire. The daemon clears the chunk's rot
// mark once the bytes land.
func (cl *Client) RepairChunk(p *simproc.Proc, name string, idx int, bytes float64) error {
	c, err := cl.dial(p)
	if err != nil {
		return err
	}
	defer hangUp(c)
	if err := c.Send(p, repairChunkReq{Name: name, Index: idx, Bytes: bytes}, bytes+ctrlBytes); err != nil {
		return err
	}
	return recvAck(p, c)
}

// VerifyManifest compares a daemon manifest against the expected sums
// for a file with the given whole-file digest, returning the indices of
// the chunks that need repair (sorted).
func VerifyManifest(sums []string, md5 string) []int {
	var bad []int
	for i, s := range sums {
		if s != ChunkSum(md5, i) {
			bad = append(bad, i)
		}
	}
	return bad
}
