package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// fnum formats a float with the shortest representation that round-trips,
// matching tracelog's attribute formatting so dumps stay byte-stable.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func promLabels(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(k, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	for i, n := range names {
		emit(n, values[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: HELP/TYPE headers, cumulative histogram buckets with le
// labels, _sum and _count series. Output order is the snapshot's
// deterministic order.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, m := range f.Metrics {
			if f.Type == TypeHistogram && m.Hist != nil {
				var cum uint64
				for i, c := range m.Hist.Counts {
					cum += c
					le := "+Inf"
					if i < len(m.Hist.Bounds) {
						le = fnum(m.Hist.Bounds[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, promLabels(f.Labels, m.LabelValues, "le", le), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
					f.Name, promLabels(f.Labels, m.LabelValues), fnum(m.Hist.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
					f.Name, promLabels(f.Labels, m.LabelValues), m.Hist.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, promLabels(f.Labels, m.LabelValues), fnum(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
