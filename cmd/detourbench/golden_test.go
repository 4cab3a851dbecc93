package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"detournet/goldentest"
	"detournet/internal/experiments"
)

// TestGolden: every name with a golden, run with default flags, prints
// exactly the bytes committed for it under testdata/golden: the paper's
// 15 figures and tables, the studies and the 7 scheduler replays. Every replay (an
// entry with a seed) must have one: an unpinned replay is an error.
// With -update it rewrites the files instead.
func TestGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the plain test run compares the goldens; the race detector only slows them down")
	}
	pinned := 0
	for _, e := range table {
		if e.golden == "" {
			if e.seed != 0 {
				t.Errorf("replay %s has no golden", e.name)
			}
			continue
		}
		pinned++
		t.Run(e.name, func(t *testing.T) {
			o := defaults
			if e.seed != 0 {
				o.Seed = e.seed
			}
			var out bytes.Buffer
			if err := e.run(&experiments.Suite{Options: o}, &out); err != nil {
				t.Fatal(err)
			}
			goldentest.Check(t, e.golden, out.Bytes())
		})
	}
	if pinned != 23 {
		t.Errorf("%d names have a golden, want 23: 15 paper figures and tables, the studies, 7 replays", pinned)
	}
}

// TestGoldenFilesPinned: every file under testdata/golden is compared by
// some test — a name of the table above, the example of the same name
// (examples/<dir> pins example-<dir>.txt), internal/replay's work
// table, or cmd/detourd's two daemon runs — so no golden can linger
// after its comparison is gone.
func TestGoldenFilesPinned(t *testing.T) {
	pinned := map[string]bool{"work.txt": true, "detourd-default.txt": true, "detourd-chaos.txt": true}
	for _, e := range table {
		if e.golden != "" {
			pinned[e.golden] = true
		}
	}
	examples, err := os.ReadDir(filepath.Join("..", "..", "examples"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range examples {
		if _, err := os.Stat(filepath.Join("..", "..", "examples", d.Name(), "main_test.go")); err == nil {
			pinned["example-"+d.Name()+".txt"] = true
		}
	}
	files, err := os.ReadDir(goldentest.Dir(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !pinned[f.Name()] {
			t.Errorf("testdata/golden/%s is compared by no test", f.Name())
		}
	}
}
