package report

import (
	"bytes"
	"strings"
	"testing"

	"detournet/internal/experiments"
)

func TestWriteFullReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Config{Options: experiments.Quick()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# detournet reproduction report",
		"Headline (paper Sec I)",
		"Fig 2", "Fig 4", "Fig 7", "Fig 8", "Fig 9", "Fig 10", "Fig 11",
		"Table I", "Table II", "Table III", "Table IV", "Table V",
		"traceroute to", "* * *",
		"Sensitivity", "Contention", "Workload study", "Download times",
		"Ablation: store-and-forward", "Vancouver POP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown structure: sections and code fences balance.
	if n := strings.Count(out, "```"); n%2 != 0 {
		t.Errorf("unbalanced code fences: %d", n)
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestWriteFailurePropagates(t *testing.T) {
	w := &failWriter{failAfter: 1}
	err := Write(w, Config{Options: experiments.Quick()})
	if err == nil {
		t.Fatal("writer failure not propagated")
	}
}

type failWriter struct{ failAfter int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.failAfter <= 0 {
		return 0, bytes.ErrTooLarge
	}
	f.failAfter--
	return len(p), nil
}
