package main

import (
	"bytes"
	"testing"

	"detournet/goldentest"
)

// TestGolden: the example prints exactly testdata/golden/example-overlay-monitor.txt.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "example-overlay-monitor.txt", out.Bytes())
}
