package multipath

import (
	"fmt"
	"io"
	"sort"

	"detournet/internal/stats"
)

// PathReport is one lane's contribution to a striped transfer.
type PathReport struct {
	ID    int
	Route string
	// Chunks lists the chunk indices this path committed, in commit
	// order — the per-path assignment the determinism test pins.
	Chunks []int
	// Bytes is committed payload (first completions only); Seconds is
	// busy time spent uploading (committed or not).
	Bytes   float64
	Seconds float64
	// Resumed/Rewritten come from the path's checkpoint accounting.
	Resumed   float64
	Rewritten float64
	// DuplicateBytes is hedge-race work this path moved and lost.
	DuplicateBytes float64
	Failures       int
	Drains         int
	Retired        bool
}

// Rate is the path's committed throughput in bytes/second (0 when it
// never got to carry anything).
func (pr PathReport) Rate() float64 {
	if pr.Seconds <= 0 {
		return 0
	}
	return pr.Bytes / pr.Seconds
}

// Report summarizes one striped transfer.
type Report struct {
	Name  string
	Size  float64
	Chunk float64
	// TailSplit and NumChunks, with Size and Chunk, recover the exact
	// stripe boundaries via Layout.
	TailSplit int
	NumChunks int
	// Seconds is wall-clock (virtual) time from first dispatch to
	// commit.
	Seconds float64
	Paths   []PathReport
	// DuplicateBytes totals payload bytes moved more than once due to
	// hedged duplicates (all paths) — payload, not wire bytes, so a
	// detour loser whose chunk crossed both hops still counts it once.
	DuplicateBytes float64
	// ResentChunks counts chunks released back to pending after a
	// failure — each costs at most one chunk of re-sent bytes.
	ResentChunks int
	// HedgedChunks counts tail chunks dispatched a second time.
	HedgedChunks int
	// Fairness is the Jain index over per-path committed bytes: 1 when
	// every path carried an equal share, 1/K when one path carried all.
	Fairness float64
}

// Rate is the transfer's aggregate throughput in bytes/second.
func (r Report) Rate() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return r.Size / r.Seconds
}

func (st *state) report(elapsed float64) Report {
	rep := Report{
		Name:         st.spec.Name,
		Size:         st.spec.Size,
		Chunk:        st.spec.Chunk,
		TailSplit:    tailSplit,
		NumChunks:    len(st.chunks),
		Seconds:      elapsed,
		ResentChunks: st.resent,
		HedgedChunks: st.hedged,
	}
	shares := make([]float64, 0, len(st.paths))
	for _, ps := range st.paths {
		pr := PathReport{
			ID:             ps.path.ID,
			Route:          ps.path.Route.String(),
			Chunks:         append([]int(nil), ps.chunks...),
			Bytes:          ps.bytes,
			Seconds:        ps.busy,
			Resumed:        ps.ck.BytesResumed,
			Rewritten:      ps.ck.BytesRewritten,
			DuplicateBytes: ps.dup,
			Failures:       ps.fails,
			Drains:         ps.drains,
			Retired:        ps.retired,
		}
		rep.DuplicateBytes += ps.dup
		shares = append(shares, ps.bytes)
		rep.Paths = append(rep.Paths, pr)
	}
	sort.Slice(rep.Paths, func(i, j int) bool { return rep.Paths[i].ID < rep.Paths[j].ID })
	if len(shares) > 0 {
		rep.Fairness = stats.JainFairness(shares)
	}
	return rep
}

// WriteReport renders the report deterministically: fixed field order,
// paths sorted by ID, fixed float formatting — byte-identical across
// runs of the same seed.
func (r Report) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "multipath %s: %.0f bytes in %d x %.0f chunks over %d paths\n",
		r.Name, r.Size, r.NumChunks, r.Chunk, len(r.Paths)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %.1fs at %.3f MB/s  fairness=%.3f  duplicate=%.0fB  resent=%d  hedged=%d\n",
		r.Seconds, r.Rate()/1e6, r.Fairness, r.DuplicateBytes, r.ResentChunks, r.HedgedChunks); err != nil {
		return err
	}
	for _, pr := range r.Paths {
		flags := ""
		if pr.Retired {
			flags = "  RETIRED"
		}
		if _, err := fmt.Fprintf(w, "  path %d [%s]: %d chunks %.0fB in %.1fs (%.3f MB/s)  dup=%.0fB fails=%d drains=%d%s\n",
			pr.ID, pr.Route, len(pr.Chunks), pr.Bytes, pr.Seconds, pr.Rate()/1e6,
			pr.DuplicateBytes, pr.Failures, pr.Drains, flags); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "    chunks=%v\n", pr.Chunks); err != nil {
			return err
		}
	}
	return nil
}
