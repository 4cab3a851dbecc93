package main

import (
	"strings"
	"testing"

	"detournet/internal/fileutil"
	"detournet/internal/scenario"
	"detournet/internal/tracelog"
)

// TestCheckTransfer: a transfer whose flags name an unknown host or no
// bytes is refused before any world is built; every documented
// invocation passes.
func TestCheckTransfer(t *testing.T) {
	cases := []struct {
		from, provider string
		sizeMB         int
		via, drain     string
		err            string // substring of the error; empty for none
	}{
		{"ubc-pl", "GoogleDrive", 100, "auto", "", ""},
		{"purdue-pl", "OneDrive", 1, "direct", "", ""},
		{"ucla-pl", "Dropbox", 30, "umich-pl", "ualberta", ""},
		{"ualberta", "GoogleDrive", 10, "direct", "", ""},
		{"ubc-pl", "GoogleDrive", 0, "auto", "", "-size 0"},
		{"ubc-pl", "GoogleDrive", -5, "auto", "", "-size -5"},
		{"nowhere", "GoogleDrive", 100, "auto", "", `unknown client "nowhere"`},
		{"ubc-pl", "Box", 100, "auto", "", `unknown provider "Box"`},
		{"ubc-pl", "GoogleDrive", 100, "mars", "", `unknown route "mars"`},
		{"ubc-pl", "GoogleDrive", 100, "auto", "ubc-pl", `unknown DTN "ubc-pl"`},
	}
	for _, c := range cases {
		err := checkTransfer(c.from, c.provider, c.sizeMB, c.via, c.drain)
		if c.err == "" && err != nil {
			t.Errorf("%+v: %v", c, err)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.err)
		}
	}
}

// Each lane's Failures equals its mp.chunk.fail events. At seed 2015,
// purdue-pl's 200 MB Dropbox stripe ends with a hedge race whose loser
// is cancelled after the winner committed: duplicate work, not a lane
// failure, so it emits no fail event and must not count as one.
func TestMultipathFailuresMatchFailEvents(t *testing.T) {
	w := scenario.Build(2015)
	defer w.Close()
	file := fileutil.New("detourctl.bin", 200*fileutil.MB, 2015)
	rep, err := stripe(w, "purdue-pl", "Dropbox", "", file)
	if err != nil {
		t.Fatal(err)
	}
	fails := map[any]int{}
	for _, ev := range w.Trace.Filter("mp.chunk.fail") {
		fails[ev.Attrs[tracelog.AttrPath]]++
	}
	lost := 0.0
	for _, pr := range rep.Paths {
		if pr.Failures != fails[pr.ID] {
			t.Errorf("path %d [%s]: Failures %d, %d mp.chunk.fail events", pr.ID, pr.Route, pr.Failures, fails[pr.ID])
		}
		lost += pr.DuplicateBytes
	}
	if rep.HedgedChunks == 0 || lost == 0 {
		t.Fatalf("no hedge loser in the run (hedged %d, duplicate %vB): the case no longer covers a cancelled loser", rep.HedgedChunks, lost)
	}
}
