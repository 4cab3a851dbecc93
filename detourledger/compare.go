package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func readLedger(path string) (*ledgerFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledgerFile
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: ledger schema %d, want %d", path, l.Schema, ledgerSchema)
	}
	return &l, nil
}

// relIQR is a metric's quartile spread as a share of its median.
func relIQR(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

// worsening is the relative change from old to cur in the metric's
// worse direction: positive is worse.
func worsening(d metricDef, old, cur float64) float64 {
	if old == cur {
		return 0
	}
	delta := (cur - old) / math.Abs(old) // ±Inf when old is 0
	if d.better == "higher" {
		return -delta
	}
	return delta
}

// verdict judges one metric of one workload. A change within the bound
// is unchanged only when both runs' spreads are within it too; a larger
// change counts only when the spreads are within the bound or the
// quartile ranges do not overlap. Metrics without a bound are "info".
func verdict(d metricDef, old, cur metric) string {
	w := worsening(d, old.Value, cur.Value)
	spread := math.Max(relIQR(old), relIQR(cur))
	separated := cur.Q1 > old.Q3 || cur.Q3 < old.Q1
	switch {
	case d.strict && w > 0:
		return "worse"
	case d.bound == 0:
		return "info"
	case math.Abs(w) <= d.bound:
		if spread > d.bound {
			return "unresolved"
		}
		return "unchanged"
	case spread > d.bound && !separated:
		return "unresolved"
	case w > 0:
		return "worse"
	default:
		return "better"
	}
}

// compareLedgers prints one row per (workload, metric) present in both
// ledgers and returns how many are worse.
func compareLedgers(out io.Writer, oldPath, newPath string) (int, error) {
	old, err := readLedger(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return 0, err
	}
	byName := map[string]*record{}
	for _, r := range old.Workloads {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told median\told IQR\tnew median\tnew IQR\tdelta\tbound\tverdict\t")
	worse := 0
	for _, r := range cur.Workloads {
		o, ok := byName[r.Workload]
		if !ok {
			continue
		}
		for _, d := range metricDefs {
			om, ok1 := o.Metrics[d.name]
			nm, ok2 := r.Metrics[d.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(d, om, nm)
			if v == "worse" {
				worse++
			}
			delta := "0"
			if om.Value != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(nm.Value-om.Value)/math.Abs(om.Value))
			} else if nm.Value != 0 {
				delta = "new"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%s\t%g\t%s\t\n",
				r.Workload, d.name, om.Value, om.Q3-om.Q1, nm.Value, nm.Q3-nm.Q1, delta, d.bound, v)
		}
	}
	return worse, tw.Flush()
}
