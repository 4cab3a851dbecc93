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
}
