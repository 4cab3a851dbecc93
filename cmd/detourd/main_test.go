package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"detournet/goldentest"
)

// goldenArgs is the small one-worker daemon run the goldens pin.
var goldenArgs = []string{"-jobs", "60", "-workers", "1", "-stats", "60s", "-seed", "2015"}

// TestGolden: at one worker the daemon's report, status lines included,
// is a pure function of its flags: the default and -chaos modes print
// exactly testdata/golden/detourd-<mode>.txt and exit 0.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		extra  []string
	}{
		{"detourd-default.txt", nil},
		{"detourd-chaos.txt", []string{"-chaos"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			var out, errs bytes.Buffer
			if code := run(append(goldenArgs, c.extra...), &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s", code, errs.String())
			}
			goldentest.Check(t, c.golden, out.Bytes())
		})
	}
}

// TestChaosWorkers: real workers over the simulated world interleave
// nondeterministically, so only the exit code is pinned: the default
// mode at eight workers fails no job, and at four workers under the
// fault schedule every invariant of Outcome.Check holds (under -race
// too).
func TestChaosWorkers(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "120", "-workers", "8"},
		{"-jobs", "60", "-workers", "4", "-chaos"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out, errs bytes.Buffer
			if code := run(args, &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s\n%s", code, errs.String(), out.String())
			}
		})
	}
}

// TestCheckFlags: flags that describe no runnable daemon are refused
// before any world is built; the defaults and the documented
// unlimited values pass.
func TestCheckFlags(t *testing.T) {
	ok := options{jobs: 600, workers: 8, providerCap: 4, dtnCap: 2, stats: time.Minute}
	cases := []struct {
		edit func(*options)
		err  string // substring of the error; empty for none
	}{
		{func(o *options) {}, ""},
		{func(o *options) { o.providerCap, o.dtnCap, o.stats = -1, -1, 0 }, ""},
		{func(o *options) { o.jobs, o.workers, o.tenantRate = 1, 1, 2 }, ""},
		{func(o *options) { o.jobs = 0 }, "-jobs 0"},
		{func(o *options) { o.workers = -3 }, "-workers -3"},
		{func(o *options) { o.tenantRate = -0.5 }, "-tenant-rate -0.5"},
		{func(o *options) { o.stats = -time.Second }, "-stats -1s"},
		{func(o *options) { o.providerCap = -2 }, "-provider-cap -2"},
		{func(o *options) { o.dtnCap = -2 }, "-dtn-cap -2"},
	}
	for _, c := range cases {
		o := ok
		c.edit(&o)
		err := o.check()
		if c.err == "" && err != nil {
			t.Errorf("%+v: %v", o, err)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%+v: error %v, want one containing %q", o, err, c.err)
		}
	}
}

// TestBadFlagsExit2: a refused flag or an unparsable one exits 2 and
// writes no report.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{{"-jobs", "0"}, {"-dtn-cap", "-5"}, {"-stats", "soon"}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with %d B of report, want exit 2 and none", args, code, out.Len())
		}
	}
}
