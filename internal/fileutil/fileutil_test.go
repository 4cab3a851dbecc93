package fileutil

import (
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a := New("f", 1000, 42)
	b := New("f", 1000, 42)
	if a.MD5 != b.MD5 || a.MD5 == "" {
		t.Fatalf("digests: %q %q", a.MD5, b.MD5)
	}
	c := New("f", 1000, 43)
	if c.MD5 == a.MD5 {
		t.Fatal("different seeds, same digest")
	}
	d := New("f", 2000, 42)
	if d.MD5 == a.MD5 {
		t.Fatal("different sizes, same digest")
	}
	if a.Data != nil {
		t.Fatal("virtual file materialized data")
	}
}

func TestNewWithData(t *testing.T) {
	f := NewWithData("f", 10000, 7)
	if len(f.Data) != 10000 || f.Size != 10000 {
		t.Fatalf("size: %d %v", len(f.Data), f.Size)
	}
	g := NewWithData("f", 10000, 7)
	if f.MD5 != g.MD5 {
		t.Fatal("same seed produced different data")
	}
	// Random data should not be trivially compressible: no long runs.
	run, best := 1, 1
	for i := 1; i < len(f.Data); i++ {
		if f.Data[i] == f.Data[i-1] {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 1
		}
	}
	if best > 6 {
		t.Fatalf("suspicious run of %d identical bytes", best)
	}
}
