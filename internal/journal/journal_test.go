package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// payload is the Writer encoder of a payload already in bytes.
func payload(p []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, p...) }
}

func TestRoundTrip(t *testing.T) {
	dev := NewMemDevice()
	w := NewWriter(dev)
	payloads := [][]byte{[]byte("hello"), {}, []byte(`{"job":"a","size":42}`), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := w.Append(byte(i+1), payload(p)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	recs, trunc, err := Replay(dev)
	if err != nil || trunc != 0 {
		t.Fatalf("replay: trunc=%d err=%v", trunc, err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Type != byte(i+1) || !bytes.Equal(r.Data, payloads[i]) {
			t.Fatalf("record %d mismatch: type=%d data=%q", i, r.Type, r.Data)
		}
	}
}

func TestTornTailTruncation(t *testing.T) {
	dev := NewMemDevice()
	w := NewWriter(dev)
	if err := w.Append(1, payload([]byte("keep me"))); err != nil {
		t.Fatal(err)
	}
	goodLen := dev.Size()
	dev.TornNextAppend(0.4)
	if err := w.Append(2, payload([]byte("torn away, never fully persisted"))); err != nil {
		t.Fatal(err)
	}
	if dev.Size() <= goodLen {
		t.Fatal("torn append persisted nothing")
	}
	recs, trunc, err := Replay(dev)
	if err != nil {
		t.Fatal(err)
	}
	if trunc == 0 {
		t.Fatal("expected torn tail to be truncated")
	}
	if len(recs) != 1 || string(recs[0].Data) != "keep me" {
		t.Fatalf("recovered %v", recs)
	}
	if dev.Size() != goodLen {
		t.Fatalf("device not truncated to valid prefix: %d != %d", dev.Size(), goodLen)
	}
	// The journal must be appendable again after truncation.
	if err := w.Append(3, payload([]byte("after recovery"))); err != nil {
		t.Fatal(err)
	}
	recs, trunc, _ = Replay(dev)
	if trunc != 0 || len(recs) != 2 {
		t.Fatalf("post-recovery replay: trunc=%d recs=%d", trunc, len(recs))
	}
}

// faultDevice is a Device with the fault hooks both implementations
// carry for the crash and disk-fault injectors.
type faultDevice interface {
	Device
	FlipByte(off int)
	ClampCapacity()
	UnclampCapacity()
}

// deviceKinds are the Device implementations the fault-hook tests run
// over. open makes an empty device whose file, if it has one, lives
// under dir; reopen reads the log back as a restarted process would.
var deviceKinds = []struct {
	name   string
	open   func(t *testing.T, dir string) faultDevice
	reopen func(t *testing.T, dev faultDevice) Device
}{
	{
		name:   "mem",
		open:   func(*testing.T, string) faultDevice { return NewMemDevice() },
		reopen: func(_ *testing.T, dev faultDevice) Device { return dev },
	},
	{
		name: "file",
		open: func(t *testing.T, dir string) faultDevice {
			f, err := OpenFileDevice(filepath.Join(dir, "ctl.journal"))
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		reopen: func(t *testing.T, dev faultDevice) Device {
			f, err := OpenFileDevice(dev.(*FileDevice).path)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	},
}

// eachDevice runs test once per device kind, on a fresh device.
func eachDevice(t *testing.T, test func(t *testing.T, dev faultDevice, reopen func() Device)) {
	for _, k := range deviceKinds {
		t.Run(k.name, func(t *testing.T) {
			dev := k.open(t, t.TempDir())
			test(t, dev, func() Device { return k.reopen(t, dev) })
		})
	}
}

// TestBitRotStopsScan: a flipped payload byte ends the scan at the
// record it rots, and the rot is persistent — a reopened device reads
// the same damage.
func TestBitRotStopsScan(t *testing.T) {
	eachDevice(t, func(t *testing.T, dev faultDevice, reopen func() Device) {
		w := NewWriter(dev)
		w.Append(1, payload([]byte("first")))
		second := dev.Size()
		w.Append(2, payload([]byte("second")))
		w.Append(3, payload([]byte("third")))
		// Corrupt a payload byte of the second record: scan keeps the
		// first, drops the second and everything after (can't trust
		// frame bounds).
		dev.FlipByte(second + HeaderSize + 2)
		for name, d := range map[string]Device{"live": dev, "reopened": reopen()} {
			recs, valid := Scan(d.Bytes())
			if len(recs) != 1 || string(recs[0].Data) != "first" {
				t.Fatalf("%s: got %d records", name, len(recs))
			}
			if valid != second {
				t.Fatalf("%s: valid=%d want %d", name, valid, second)
			}
		}
	})
}

func TestCompactAtomicity(t *testing.T) {
	dev := NewMemDevice()
	w := NewWriter(dev)
	for i := 0; i < 10; i++ {
		w.Append(1, payload([]byte{byte(i)}))
	}
	if err := w.Compact(9, payload([]byte("snapshot"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, payload([]byte("tail"))); err != nil {
		t.Fatal(err)
	}
	recs, trunc, _ := Replay(dev)
	if trunc != 0 || len(recs) != 2 || recs[0].Type != 9 || string(recs[1].Data) != "tail" {
		t.Fatalf("after compact: trunc=%d recs=%v", trunc, recs)
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.journal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(dev)
	w.Append(1, payload([]byte("persisted")))
	w.Append(2, payload([]byte("records")))

	// Simulate a crash: drop the in-memory handle, tear the on-disk tail.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, append(raw, Encode(3, []byte("torn"))[:7]...), 0o644)

	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, trunc, err := Replay(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if trunc != 7 || len(recs) != 2 || string(recs[1].Data) != "records" {
		t.Fatalf("file replay: trunc=%d recs=%d", trunc, len(recs))
	}
	raw, _ = os.ReadFile(path)
	if _, valid := Scan(raw); valid != len(raw) {
		t.Fatal("on-disk journal still has a torn tail after Replay")
	}

	if err := dev2.Swap(Encode(9, []byte("compacted"))); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("swap left its temp file behind")
	}
	dev3, _ := OpenFileDevice(path)
	recs, _, _ = Replay(dev3)
	if len(recs) != 1 || string(recs[0].Data) != "compacted" {
		t.Fatalf("after swap: %v", recs)
	}
}

func TestScanGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{Magic},
		{0x00, 0x01, 0x02},
		bytes.Repeat([]byte{Magic}, 100),
		bytes.Repeat([]byte{0xFF}, 1000),
		Encode(1, nil)[:HeaderSize-1],
	}
	// A length field pointing past the buffer must not be trusted.
	huge := Encode(1, []byte("x"))
	huge[2] = 0xFF
	huge[3] = 0xFF
	huge[4] = 0xFF
	huge[5] = 0x7F
	cases = append(cases, huge)
	for i, c := range cases {
		recs, valid := Scan(c)
		if len(recs) != 0 {
			t.Errorf("case %d: decoded %d records from garbage", i, len(recs))
		}
		if valid < 0 || valid > len(c) {
			t.Errorf("case %d: valid=%d out of range", i, valid)
		}
	}
}
