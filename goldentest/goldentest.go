// Package goldentest compares a test's output with its golden file under
// the module's testdata/golden, byte for byte. A test binary that imports
// it takes the -update flag, which rewrites the files instead:
//
//	go test -run '^TestGolden' ./...                     # compare
//	go test -run '^TestGolden' ./cmd/detourbench -update # rewrite
package goldentest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden from the current output")

// Dir returns the module's testdata/golden directory, found by walking up
// from the test's working directory to go.mod.
func Dir(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "testdata", "golden")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("goldentest: no go.mod above the test's directory")
		}
		dir = parent
	}
}

// Check compares got with the golden file name under Dir, or, with
// -update, writes got to it.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join(Dir(t), name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
		line++
	}
	t.Errorf("output differs from %s (%d B, golden %d B) from line %d:\n got: %q\nwant: %q\nafter an intended change, rerun with -update",
		path, len(got), len(want), line+1, lineAt(gl, line), lineAt(wl, line))
}

// lineAt returns lines[i], or "" past the end.
func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
