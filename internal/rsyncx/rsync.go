// Package rsyncx implements the rsync algorithm (Tridgell & Mackerras)
// and a daemon/client pair over the simulated transport — the tool the
// paper uses for the first hop of every detour (client → intermediate
// DTN).
//
// The paper notes that staged files are deleted before each run, so
// detour timings never benefit from rsync's delta transfer; the
// algorithm is nonetheless implemented in full (rolling weak checksum,
// strong block hashes, block matching, delta encode/apply) so the
// library is honest about what the tool costs and so re-sync workloads
// can be studied (see the ablation benchmarks).
package rsyncx

import (
	"crypto/md5"
	"fmt"
)

// DefaultBlockSize is rsync's traditional block size heuristic floor.
const DefaultBlockSize = 2048

// weakMod is the modulus of the rolling checksum (rsync uses 1<<16).
const weakMod = 1 << 16

// WeakSum is the Adler-style rolling checksum of a block.
type WeakSum uint32

// weak computes the rolling checksum of p from scratch.
func weak(p []byte) WeakSum {
	var a, b uint32
	n := len(p)
	for i, c := range p {
		a += uint32(c)
		b += uint32(n-i) * uint32(c)
	}
	return WeakSum((a % weakMod) | ((b % weakMod) << 16))
}

// roll slides the checksum one byte for a window of n bytes: out leaves
// on the left, in enters on the right. With a(k) = Σ p[k+i] and
// b(k) = Σ (n-i)·p[k+i], the recurrences are a' = a - out + in and
// b' = b - n·out + a'.
func roll(s WeakSum, out, in byte, n int) WeakSum {
	a := uint32(s) & 0xffff
	b := uint32(s) >> 16
	a = (a + weakMod - uint32(out)%weakMod + uint32(in)) % weakMod
	nOut := (uint32(n) % weakMod) * uint32(out) % weakMod
	b = (b + weakMod - nOut + a) % weakMod
	return WeakSum(a | (b << 16))
}

// StrongSum is the collision-resistant block digest.
type StrongSum [md5.Size]byte

func strong(p []byte) StrongSum { return md5.Sum(p) }

// BlockSig is one block's signature.
type BlockSig struct {
	Index  int
	Weak   WeakSum
	Strong StrongSum
	Len    int
}

// Signature describes a basis file as block signatures.
type Signature struct {
	BlockSize int
	Blocks    []BlockSig
	TotalLen  int
}

// WireSize returns the bytes a signature occupies on the wire
// (4B weak + 16B strong + 4B len per block, plus a small header).
func (s *Signature) WireSize() float64 {
	return 16 + float64(len(s.Blocks))*24
}

// Sign computes the signature of basis with the given block size
// (DefaultBlockSize if <= 0).
func Sign(basis []byte, blockSize int) *Signature {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sig := &Signature{BlockSize: blockSize, TotalLen: len(basis)}
	for i := 0; i < len(basis); i += blockSize {
		end := i + blockSize
		if end > len(basis) {
			end = len(basis)
		}
		blk := basis[i:end]
		sig.Blocks = append(sig.Blocks, BlockSig{
			Index:  len(sig.Blocks),
			Weak:   weak(blk),
			Strong: strong(blk),
			Len:    len(blk),
		})
	}
	return sig
}

// OpKind tags a delta operation.
type OpKind byte

const (
	// OpCopy references a block of the basis file.
	OpCopy OpKind = iota
	// OpData carries literal bytes.
	OpData
)

// Op is one delta operation.
type Op struct {
	Kind  OpKind
	Index int    // OpCopy: basis block index
	Data  []byte // OpData: literal bytes
}

// Delta is the instruction stream that rebuilds the target from the
// basis.
type Delta struct {
	BlockSize int
	Ops       []Op
	TargetLen int
}

// WireSize returns the delta's on-the-wire size: literals dominate;
// copies cost 8 bytes each.
func (d *Delta) WireSize() float64 {
	n := 16.0
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			n += 8
		} else {
			n += 4 + float64(len(op.Data))
		}
	}
	return n
}

// ComputeDelta matches target against the basis signature and produces a
// delta, using the rolling checksum to find block alignments at any
// offset (the heart of rsync).
func ComputeDelta(sig *Signature, target []byte) *Delta {
	bs := sig.BlockSize
	d := &Delta{BlockSize: bs, TargetLen: len(target)}

	// Index weak sums -> candidate blocks.
	byWeak := make(map[WeakSum][]*BlockSig, len(sig.Blocks))
	for i := range sig.Blocks {
		b := &sig.Blocks[i]
		if b.Len == bs { // only full blocks are matchable mid-stream
			byWeak[b.Weak] = append(byWeak[b.Weak], b)
		}
	}

	var lit []byte
	flush := func() {
		if len(lit) > 0 {
			d.Ops = append(d.Ops, Op{Kind: OpData, Data: append([]byte(nil), lit...)})
			lit = lit[:0]
		}
	}

	i := 0
	var w WeakSum
	fresh := true
	for i+bs <= len(target) {
		if fresh {
			w = weak(target[i : i+bs])
			fresh = false
		}
		matched := false
		if cands, ok := byWeak[w]; ok {
			s := strong(target[i : i+bs])
			for _, c := range cands {
				if c.Strong == s {
					flush()
					d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: c.Index})
					i += bs
					fresh = true
					matched = true
					break
				}
			}
		}
		if !matched {
			lit = append(lit, target[i])
			if i+bs < len(target) {
				w = roll(w, target[i], target[i+bs], bs)
			}
			i++
		}
	}
	lit = append(lit, target[i:]...)
	flush()

	// Tail: a final short basis block matching the target tail exactly.
	// (Handled implicitly above as literals; an optimization pass could
	// copy it, but literals keep the operation stream simple.)
	return d
}

// Apply rebuilds the target from the basis and a delta.
func Apply(basis []byte, d *Delta) ([]byte, error) {
	bs := d.BlockSize
	out := make([]byte, 0, d.TargetLen)
	for _, op := range d.Ops {
		switch op.Kind {
		case OpCopy:
			lo := op.Index * bs
			hi := lo + bs
			if lo < 0 || lo > len(basis) {
				return nil, fmt.Errorf("rsyncx: copy of block %d outside basis", op.Index)
			}
			if hi > len(basis) {
				hi = len(basis)
			}
			out = append(out, basis[lo:hi]...)
		case OpData:
			out = append(out, op.Data...)
		default:
			return nil, fmt.Errorf("rsyncx: unknown op kind %d", op.Kind)
		}
	}
	if len(out) != d.TargetLen {
		return nil, fmt.Errorf("rsyncx: rebuilt %d bytes, want %d", len(out), d.TargetLen)
	}
	return out, nil
}

// Checksum is a whole-file digest used for end-to-end verification.
func Checksum(p []byte) string {
	s := md5.Sum(p)
	return fmt.Sprintf("%x", s)
}
