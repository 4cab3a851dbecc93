package main

import (
	"bytes"
	"testing"

	"detournet/goldentest"
)

// TestGolden: the example prints exactly testdata/golden/example-quickstart.txt.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "example-quickstart.txt", out.Bytes())
}
