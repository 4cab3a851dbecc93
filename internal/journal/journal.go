// Package journal is a crash-consistent write-ahead log for the
// scheduler's control plane. Records are framed with a magic byte, a
// type tag, a little-endian length, and a CRC32C (Castagnoli) checksum
// over the type and payload, so a reader can always recover the longest
// valid prefix of a journal that was torn mid-append or bit-flipped at
// rest: scanning stops at the first frame that fails the magic, length,
// or checksum test, and replay truncates the tail beyond it.
//
// The log grows append-only between compactions. A compaction rewrites
// the device as one snapshot record and installs it atomically (Swap),
// so a crash during compaction leaves either the old journal or the new
// one — never a mix.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// ErrNoSpace reports an append the device refused because the log has
// reached its configured capacity. Callers that can shrink the log
// (compaction) should do so and retry; callers that cannot must degrade
// rather than tear the frame — a bounded device never persists a
// partial frame on ENOSPC, so the on-device prefix stays valid.
var ErrNoSpace = errors.New("journal: no space left on device")

// Frame layout: magic(1) type(1) len(4 LE) crc32c(4 LE) payload(len).
const (
	// Magic marks the start of every record frame.
	Magic = 0xA7
	// HeaderSize is the fixed frame overhead before the payload.
	HeaderSize = 10
	// MaxRecord bounds a single record's payload so a corrupted length
	// field cannot make the scanner chase gigabytes of garbage.
	MaxRecord = 16 << 20
)

// castagnoli is the CRC32C table (the polynomial used by ext4, iSCSI,
// and most storage-system WALs for exactly this job).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Rec is one decoded journal record.
type Rec struct {
	Type byte
	Data []byte
}

// Device is the persistence seam: an append-only byte log with an
// atomic whole-content swap for compaction. Implementations must make
// Swap atomic with respect to crashes (all-or-nothing), and neither
// Append nor Swap may keep b: the Writer reuses it for the next frame.
type Device interface {
	// Bytes returns the current full content of the log.
	Bytes() []byte
	// Append writes b at the end of the log and returns the bytes
	// actually persisted (a torn write persists fewer than len(b)).
	Append(b []byte) (int, error)
	// Swap atomically replaces the whole log content with b.
	Swap(b []byte) error
	// Size returns the current log length in bytes.
	Size() int
}

// appendFrame appends one framed record to b, its payload appended in
// place by enc, and returns the extended slice.
func appendFrame(b []byte, typ byte, enc func([]byte) []byte) []byte {
	off := len(b)
	b = enc(append(b, Magic, typ, 0, 0, 0, 0, 0, 0, 0, 0))
	payload := b[off+HeaderSize:]
	binary.LittleEndian.PutUint32(b[off+2:off+6], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, b[off+1:off+2])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(b[off+6:off+10], crc)
	return b
}

// Scan decodes the longest valid prefix of b. It returns the records
// decoded and the byte offset of the end of the valid prefix; bytes
// beyond valid are a torn or corrupted tail. Scan never panics on any
// input.
func Scan(b []byte) (recs []Rec, valid int) {
	off := 0
	for off+HeaderSize <= len(b) {
		if b[off] != Magic {
			break
		}
		typ := b[off+1]
		n := int(binary.LittleEndian.Uint32(b[off+2 : off+6]))
		if n < 0 || n > MaxRecord || off+HeaderSize+n > len(b) {
			break
		}
		want := binary.LittleEndian.Uint32(b[off+6 : off+10])
		payload := b[off+HeaderSize : off+HeaderSize+n]
		crc := crc32.Update(0, castagnoli, []byte{typ})
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != want {
			break
		}
		data := make([]byte, n)
		copy(data, payload)
		recs = append(recs, Rec{Type: typ, Data: data})
		off += HeaderSize + n
	}
	return recs, off
}

// Replay scans the device and, if a torn or corrupted tail follows the
// valid prefix, truncates the log back to the prefix so subsequent
// appends start from a clean frame boundary. It returns the recovered
// records and the number of tail bytes discarded.
func Replay(dev Device) (recs []Rec, truncated int, err error) {
	b := dev.Bytes()
	recs, valid := Scan(b)
	if valid < len(b) {
		truncated = len(b) - valid
		prefix := make([]byte, valid)
		copy(prefix, b[:valid])
		if err := dev.Swap(prefix); err != nil {
			return recs, truncated, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	return recs, truncated, nil
}

// Writer appends framed records to a device. Each method takes enc,
// which appends a record's payload to the slice it is handed and returns
// the result, so the payload is encoded straight into its frame.
type Writer struct {
	dev Device
	buf []byte // reused for every appended record's frame
	// lastCompact is the length of the last compaction's frame.
	lastCompact int
}

// NewWriter returns a Writer over dev.
func NewWriter(dev Device) *Writer { return &Writer{dev: dev} }

// Append frames and appends one record. A short (torn) append is not an
// error here — it models a crash mid-write; the torn frame is discarded
// by the next Replay.
func (w *Writer) Append(typ byte, enc func([]byte) []byte) error {
	w.buf = appendFrame(w.buf[:0], typ, enc)
	_, err := w.dev.Append(w.buf)
	return err
}

// Compact atomically replaces the log with one record, typically a
// snapshot of everything the log held. Its frame gets a buffer of its
// own, half again the size of the last compaction's, so a snapshot that
// grew a little is framed in one allocation, and the Writer keeps no
// snapshot-sized buffer between compactions.
func (w *Writer) Compact(typ byte, enc func([]byte) []byte) error {
	b := appendFrame(make([]byte, 0, w.lastCompact+w.lastCompact/2), typ, enc)
	w.lastCompact = len(b)
	return w.dev.Swap(b)
}

// Device returns the underlying device.
func (w *Writer) Device() Device { return w.dev }

// --- MemDevice ---

// segmentSize is the size of one MemDevice storage segment.
const segmentSize = 4 << 10

// MemDevice is an in-memory Device with crash-injection hooks: the
// fault layer uses TornNextAppend to persist only a prefix of the next
// append (a torn write) and FlipByte to corrupt a byte at rest (bit
// rot).
//
// The log lives in fixed-size segments. An append never moves stored
// bytes, and a Swap keeps the segments it frees for the log's next
// bytes, so a device allocates its storage once, at its peak size,
// however many times compaction shrinks it.
type MemDevice struct {
	segs  [][]byte // the log in order; every segment but the last is full
	size  int
	spare [][]byte // empty segments a Swap freed
	// tornFrac, when in (0,1), truncates the next Append to that
	// fraction of the frame.
	tornFrac float64
	// Capacity bounds the log size in bytes; zero means unbounded. An
	// Append that would exceed it persists nothing and returns
	// ErrNoSpace (whole-frame rejection, never a torn frame). Swap is
	// allowed whenever the new content itself fits, which is what lets
	// a compaction shrink an already-full log.
	Capacity int
	savedCap int
	clamped  bool
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// Bytes implements Device. It returns a copy: the log itself is
// segmented.
func (m *MemDevice) Bytes() []byte {
	b := make([]byte, 0, m.size)
	for _, seg := range m.segs {
		b = append(b, seg...)
	}
	return b
}

// Size implements Device.
func (m *MemDevice) Size() int { return m.size }

// Append implements Device, honoring a pending torn-write injection.
func (m *MemDevice) Append(b []byte) (int, error) {
	n, err := m.admit(b)
	if err != nil {
		return 0, err
	}
	m.write(b[:n])
	return n, nil
}

// admit judges an append of b against the capacity and returns how
// many of its bytes persist: all of them, or a pending torn write's
// fraction, which it disarms.
func (m *MemDevice) admit(b []byte) (int, error) {
	if m.over(m.size + len(b)) {
		return 0, ErrNoSpace
	}
	n := len(b)
	if m.tornFrac > 0 && m.tornFrac < 1 {
		n = int(float64(len(b)) * m.tornFrac)
		if n >= len(b) {
			n = len(b) - 1
		}
		if n < 1 {
			n = 1
		}
		m.tornFrac = 0
	}
	return n, nil
}

// over reports whether a log of size bytes exceeds the capacity.
func (m *MemDevice) over(size int) bool { return m.Capacity > 0 && size > m.Capacity }

// write stores b at the end of the log, filling the last segment and
// taking spare or new ones as it goes.
func (m *MemDevice) write(b []byte) {
	m.size += len(b)
	for len(b) > 0 {
		last := len(m.segs) - 1
		if last < 0 || len(m.segs[last]) == segmentSize {
			var seg []byte
			if k := len(m.spare) - 1; k >= 0 {
				seg, m.spare = m.spare[k], m.spare[:k]
			} else {
				seg = make([]byte, 0, segmentSize)
			}
			m.segs = append(m.segs, seg)
			last++
		}
		seg := m.segs[last]
		n := copy(seg[len(seg):segmentSize], b)
		m.segs[last] = seg[:len(seg)+n]
		b = b[n:]
	}
}

// Swap implements Device. A swap whose new content itself exceeds the
// capacity is refused; a swap that shrinks (or fits) always succeeds,
// even on a full device — compaction must be able to reclaim space.
func (m *MemDevice) Swap(b []byte) error {
	if m.over(len(b)) {
		return ErrNoSpace
	}
	for i := len(m.segs) - 1; i >= 0; i-- {
		m.spare = append(m.spare, m.segs[i][:0])
	}
	m.segs, m.size = m.segs[:0], 0
	m.write(b)
	return nil
}

// TornNextAppend arms a torn write: the next Append persists only frac
// of its bytes (clamped to at least 1 and at most len-1).
func (m *MemDevice) TornNextAppend(frac float64) {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	m.tornFrac = frac
}

// FlipByte XORs the byte at off with 0xFF, silently ignoring an
// out-of-range offset — bit rot never errors.
func (m *MemDevice) FlipByte(off int) {
	if off >= 0 && off < m.size {
		m.segs[off/segmentSize][off%segmentSize] ^= 0xFF
	}
}

// ClampCapacity arms an ENOSPC condition: the capacity is pinned at
// the current log size, so every further append fails with ErrNoSpace
// until the log shrinks (compaction) or UnclampCapacity restores the
// configured bound. Idempotent.
func (m *MemDevice) ClampCapacity() {
	if m.clamped {
		return
	}
	m.savedCap, m.clamped = m.Capacity, true
	m.Capacity = m.size
	if m.Capacity == 0 {
		m.Capacity = 1 // an empty log still refuses appends while clamped
	}
}

// UnclampCapacity restores the capacity ClampCapacity saved.
func (m *MemDevice) UnclampCapacity() {
	if !m.clamped {
		return
	}
	m.Capacity, m.clamped = m.savedCap, false
}

// --- FileDevice ---

// FileDevice persists the log in a file; Swap writes a temp file in the
// same directory and renames it over the log, the standard atomic
// -install idiom. It keeps the log's image in a MemDevice, so capacity,
// ENOSPC clamping and the crash-injection hooks (TornNextAppend,
// FlipByte) behave exactly as there, and the fault layer can tear and
// rot a real on-disk journal.
type FileDevice struct {
	MemDevice
	path string
}

// OpenFileDevice opens (or creates) the journal file at path and loads
// its content.
func OpenFileDevice(path string) (*FileDevice, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	f := &FileDevice{path: path}
	f.write(b)
	return f, nil
}

// Append implements Device: the bytes MemDevice admits go to the file,
// and the image keeps what the file took.
func (f *FileDevice) Append(b []byte) (int, error) {
	n, err := f.admit(b)
	if err != nil {
		return 0, err
	}
	fh, err := os.OpenFile(f.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	n, err = fh.Write(b[:n])
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	f.write(b[:n])
	return n, err
}

// Swap implements Device via temp-file + rename. Like MemDevice, a
// swap is refused only when the new content itself exceeds Capacity.
func (f *FileDevice) Swap(b []byte) error {
	if f.over(len(b)) {
		return ErrNoSpace
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return err
	}
	return f.MemDevice.Swap(b)
}

// FlipByte XORs the byte at off with 0xFF, in memory and on disk,
// silently ignoring an out-of-range offset — bit rot never errors.
func (f *FileDevice) FlipByte(off int) {
	if off < 0 || off >= f.size {
		return
	}
	f.MemDevice.FlipByte(off)
	fh, err := os.OpenFile(f.path, os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fh.WriteAt([]byte{f.segs[off/segmentSize][off%segmentSize]}, int64(off)) //nolint:errcheck // silent by construction
	fh.Close()
}
