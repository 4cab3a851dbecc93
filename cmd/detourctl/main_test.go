package main

import (
	"strings"
	"testing"
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
