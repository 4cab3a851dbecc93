package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"detournet/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden from the current output")

// TestGolden: every name with a golden, run with default flags, prints
// exactly the bytes committed for it under testdata/golden: the paper's
// 15 figures and tables and the 7 deterministic scheduler replays. With
// -update it rewrites the files instead.
func TestGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the plain test run compares the goldens; the race detector only slows them down")
	}
	dir := filepath.Join("..", "..", "testdata", "golden")
	pinned := 0
	for _, e := range table {
		if e.golden == "" {
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
			path := filepath.Join(dir, e.golden)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("-experiment %s no longer prints %s (%d B, golden %d B); after an intended change, rerun with -update",
					e.name, path, out.Len(), len(want))
			}
		})
	}
	if pinned != 22 {
		t.Errorf("%d names have a golden, want 22: 15 paper figures and tables, 7 replays", pinned)
	}
}
