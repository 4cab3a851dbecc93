package rsyncx

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestWeakRollMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randBytes(rng, 4096)
	n := 512
	w := weak(data[0:n])
	for i := 0; i+n < len(data); i++ {
		w = roll(w, data[i], data[i+n], n)
		want := weak(data[i+1 : i+1+n])
		if w != want {
			t.Fatalf("roll diverged at offset %d: %x vs %x", i+1, w, want)
		}
	}
}

func TestPropertyWeakRoll(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 2
		data := randBytes(rng, n*4)
		w := weak(data[:n])
		for i := 0; i+n < len(data); i++ {
			w = roll(w, data[i], data[i+n], n)
			if w != weak(data[i+1:i+1+n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSignBlockLayout(t *testing.T) {
	data := make([]byte, 5000)
	sig := Sign(data, 2048)
	if len(sig.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(sig.Blocks))
	}
	if sig.Blocks[0].Len != 2048 || sig.Blocks[2].Len != 904 {
		t.Fatalf("block lens: %d %d %d", sig.Blocks[0].Len, sig.Blocks[1].Len, sig.Blocks[2].Len)
	}
	if sig.TotalLen != 5000 {
		t.Fatalf("TotalLen = %d", sig.TotalLen)
	}
	if Sign(nil, 0).BlockSize != DefaultBlockSize {
		t.Fatal("default block size not applied")
	}
	if sig.WireSize() <= float64(3*24) {
		t.Fatalf("WireSize = %v", sig.WireSize())
	}
}

func roundTrip(t *testing.T, basis, target []byte, blockSize int) *Delta {
	t.Helper()
	sig := Sign(basis, blockSize)
	d := ComputeDelta(sig, target)
	got, err := Apply(basis, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return d
}

func TestDeltaIdenticalFilesAllCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randBytes(rng, 8192)
	d := roundTrip(t, data, data, 1024)
	if d.LiteralBytes() != 0 {
		t.Fatalf("identical files shipped %d literal bytes", d.LiteralBytes())
	}
	if d.WireSize() >= float64(len(data))/10 {
		t.Fatalf("delta for identical file too big: %v", d.WireSize())
	}
}

func TestDeltaEmptyBasisAllLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randBytes(rng, 5000)
	d := roundTrip(t, nil, data, 1024)
	if d.LiteralBytes() != len(data) {
		t.Fatalf("literal bytes = %d, want %d", d.LiteralBytes(), len(data))
	}
}

func TestDeltaInsertionInMiddle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	basis := randBytes(rng, 10240)
	insert := randBytes(rng, 100)
	target := append(append(append([]byte{}, basis[:5000]...), insert...), basis[5000:]...)
	d := roundTrip(t, basis, target, 1024)
	// Rolling matching must realign after the insertion: literals should
	// be ~100 + partial blocks around the cut, nowhere near the whole file.
	if d.LiteralBytes() > 2500 {
		t.Fatalf("insertion cost %d literal bytes, want < 2500", d.LiteralBytes())
	}
}

func TestDeltaPrependShift(t *testing.T) {
	// A pure shift is the case the rolling checksum exists for.
	rng := rand.New(rand.NewSource(5))
	basis := randBytes(rng, 8192)
	target := append(randBytes(rng, 7), basis...)
	d := roundTrip(t, basis, target, 512)
	if d.LiteralBytes() > 1024 {
		t.Fatalf("prepend cost %d literal bytes", d.LiteralBytes())
	}
}

func TestDeltaTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	basis := randBytes(rng, 8192)
	roundTrip(t, basis, basis[:3000], 1024)
	roundTrip(t, basis, nil, 1024)
}

func TestDeltaCompletelyDifferent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	basis := randBytes(rng, 4096)
	target := randBytes(rng, 4096)
	d := roundTrip(t, basis, target, 512)
	if d.LiteralBytes() != len(target) {
		t.Fatalf("random target matched %d bytes of random basis", len(target)-d.LiteralBytes())
	}
}

func TestPropertyDeltaRoundTrip(t *testing.T) {
	f := func(seed int64, editRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		basis := randBytes(rng, 2000+rng.Intn(6000))
		target := append([]byte(nil), basis...)
		// Random edits: mutate, insert, delete.
		for e := 0; e < int(editRaw%8); e++ {
			if len(target) == 0 {
				break
			}
			switch rng.Intn(3) {
			case 0:
				target[rng.Intn(len(target))] ^= 0xff
			case 1:
				at := rng.Intn(len(target))
				target = append(target[:at], append(randBytes(rng, rng.Intn(200)), target[at:]...)...)
			case 2:
				at := rng.Intn(len(target))
				end := at + rng.Intn(len(target)-at)
				target = append(target[:at], target[end:]...)
			}
		}
		sig := Sign(basis, 512)
		d := ComputeDelta(sig, target)
		got, err := Apply(basis, d)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsCorruptDelta(t *testing.T) {
	basis := make([]byte, 1000)
	d := &Delta{BlockSize: 512, TargetLen: 512, Ops: []Op{{Kind: OpCopy, Index: 99}}}
	if _, err := Apply(basis, d); err == nil {
		t.Fatal("out-of-range copy accepted")
	}
	d = &Delta{BlockSize: 512, TargetLen: 9999, Ops: []Op{{Kind: OpData, Data: make([]byte, 10)}}}
	if _, err := Apply(basis, d); err == nil {
		t.Fatal("length mismatch accepted")
	}
	d = &Delta{BlockSize: 512, TargetLen: 0, Ops: []Op{{Kind: OpKind(7)}}}
	if _, err := Apply(basis, d); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestChecksumStable(t *testing.T) {
	a := Checksum([]byte("hello"))
	b := Checksum([]byte("hello"))
	c := Checksum([]byte("world"))
	if a != b || a == c || len(a) != 32 {
		t.Fatalf("checksums: %s %s %s", a, b, c)
	}
}

func TestWireSizeAccounting(t *testing.T) {
	d := &Delta{Ops: []Op{
		{Kind: OpCopy, Index: 0},
		{Kind: OpData, Data: make([]byte, 100)},
	}}
	if d.WireSize() != 16+8+104 {
		t.Fatalf("WireSize = %v", d.WireSize())
	}
	if !equalData([]byte{1}, []byte{1}) || equalData([]byte{1}, []byte{2}) {
		t.Fatal("equalData broken")
	}
}

func BenchmarkSign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := randBytes(rng, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sign(data, DefaultBlockSize)
	}
}

func BenchmarkComputeDeltaIdentical(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := randBytes(rng, 4<<20)
	sig := Sign(data, DefaultBlockSize)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDelta(sig, data)
	}
}

func BenchmarkComputeDeltaShifted(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	basis := randBytes(rng, 2<<20)
	target := append(randBytes(rng, 13), basis...)
	sig := Sign(basis, DefaultBlockSize)
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDelta(sig, target)
	}
}
