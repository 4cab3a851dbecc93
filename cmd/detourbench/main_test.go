package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"detournet/internal/experiments"
)

// TestSelected: one case-insensitive lookup serves every name — figure,
// study and replay — and all runs the paper's 15 figures and tables.
func TestSelected(t *testing.T) {
	for _, name := range []string{"fig2", "FIG2", "Report", "Studies", "dump", "Churn", "telemetry", "Overload"} {
		if got := selected(name); len(got) != 1 || got[0].name != strings.ToLower(name) {
			t.Errorf("selected(%q) = %d entries", name, len(got))
		}
	}
	if got := selected("ALL"); len(got) != 15 {
		t.Errorf("all runs %d entries, want 15", len(got))
	}
	if got := selected("fig1"); len(got) != 0 {
		t.Errorf("unknown name selected %d entries", len(got))
	}
}

// TestUsageListsEveryName: the package doc's usage line names every
// entry of the table, in table order, and nothing else.
func TestUsageListsEveryName(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "[-seed N]")
	_, usage, ok := strings.Cut(doc, "[-experiment ")
	if !ok {
		t.Fatal("no -experiment usage in the package doc")
	}
	usage = strings.NewReplacer("//", "", "\t", "", " ", "", "\n", "", "]", "").Replace(usage)
	if want := strings.ReplaceAll(names(), ", ", "|"); usage != want {
		t.Errorf("usage lists\n%s\nwant\n%s", usage, want)
	}
}

// TestParse: the command line becomes the names to run and one valid
// protocol, or an error before any world is built.
func TestParse(t *testing.T) {
	cases := []struct {
		args []string
		name string // first name selected
		want experiments.Options
		err  string // substring of the error; empty for none
	}{
		{args: nil, name: "fig2", want: defaults},
		{args: []string{"-experiment", "telemetry"}, name: "telemetry", want: experiments.Options{Seed: 7, Runs: 7, Keep: 5}},
		{args: []string{"-experiment", "telemetry", "-seed", "3"}, name: "telemetry", want: experiments.Options{Seed: 3, Runs: 7, Keep: 5}},
		{args: []string{"-quick", "-seed", "9"}, name: "fig2", want: experiments.Options{Seed: 9, Runs: 3, Keep: 2, SizesMB: []int{10, 40, 100}}},
		{args: []string{"-quick", "-runs", "0"}, name: "fig2", want: experiments.Options{Seed: 2015, Runs: 3, Keep: 2, SizesMB: []int{10, 40, 100}}},
		{args: []string{"-runs", "3", "-keep", "3", "-sizes", "10, 20"}, name: "fig2", want: experiments.Options{Seed: 2015, Runs: 3, Keep: 3, SizesMB: []int{10, 20}}},
		{args: []string{"-runs", "1", "-keep", "1"}, name: "fig2", want: experiments.Options{Seed: 2015, Runs: 1, Keep: 1}},
		{args: []string{"-runs", "-2"}, err: "want runs >= 1"},
		{args: []string{"-runs", "0", "-keep", "0"}, err: "want runs >= 1"},
		{args: []string{"-keep", "-1"}, err: "1 <= keep <= runs"},
		{args: []string{"-keep", "0"}, err: "1 <= keep <= runs"},
		{args: []string{"-runs", "3", "-keep", "9"}, err: "1 <= keep <= runs"},
		{args: []string{"-sizes", "10,x"}, err: `bad size "x"`},
		{args: []string{"-sizes", "0"}, err: `bad size "0"`},
		{args: []string{"-experiment", "fig1"}, err: `unknown experiment "fig1"`},
		{args: []string{"-runs", "many"}, err: "invalid value"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("detourbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		todo, o, err := parse(fs, c.args)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%q: error %v, want one containing %q", c.args, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if todo[0].name != c.name || !reflect.DeepEqual(o, c.want) {
			t.Errorf("%q: runs %s with %+v, want %s with %+v", c.args, todo[0].name, o, c.name, c.want)
		}
	}
}
