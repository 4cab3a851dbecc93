package main

import (
	"os"
	"strings"
	"testing"
)

// TestSelected: one case-insensitive lookup serves every name — figure,
// extension and replay — and all runs the paper's 15 figures and tables.
func TestSelected(t *testing.T) {
	for _, name := range []string{"fig2", "FIG2", "Report", "dump", "Churn", "telemetry", "fleet"} {
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
