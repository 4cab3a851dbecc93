// Command detourledger is detournet's performance ledger. It runs four
// named workloads (paper-grid, storm-fleet, fluid-stress and dispatch),
// measures each end to end and, in a traced run, layer by layer, and
// checks each workload's outputs so that a fast but wrong program
// cannot score.
//
// Usage:
//
//	detourledger -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-cpuprofile FILE] [-record FILE] [-quick]
//	detourledger [-seed N] [-seconds S] [-trace 0|1] [-cpuprofile PREFIX] [-out FILE] [-quick]
//	detourledger -compare OLD NEW
//
// The first form runs one workload in this process. It prints every
// metric by name with its unit and ends with one JSON line holding
// "correct", "attempted", "failed" and "metrics": the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. The
// second form runs all four workloads, each in its own child process so
// that GC state and peak RSS belong to one workload, and writes the
// ledger (every metric with its quartiles) to -out. With -trace 1 it
// adds a traced child per workload for the per-layer metrics. The third
// form compares two ledgers metric by metric. It exits 1 on any
// regression beyond a metric's bound.
//
// Run it from the repository root with detourledger/run.sh, which
// builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

var workloads = []*benchWorkload{paperGridWorkload, stormFleetWorkload, fluidStressWorkload, dispatchWorkload}

func findWorkload(name string) (*benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process, and end with its JSON result line")
		seed    = flag.Int64("seed", goldenSeed, "first input seed; batch i uses the seeds that follow")
		seconds = flag.Float64("seconds", 10, "measured seconds per workload on the reference 2-core box; fixes the batch count")
		trace   = flag.Int("trace", 0, "1: alternate traced and untraced batches and report per-layer metrics")
		quick   = flag.Bool("quick", false, "two tiny batches per workload, for a smoke run")
		cpuprof = flag.String("cpuprofile", "", "with -trace 1: write the traced batches' merged CPU profile here (ledger mode appends .WORKLOAD)")
		record  = flag.String("record", "", "with -workload: also write the full record as JSON here")
		out     = flag.String("out", "ledger.json", "ledger mode: where to write the ledger")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare OLD NEW")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "-compare needs OLD and NEW ledger files")
		}
		worse, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(2, err.Error())
		}
		if worse > 0 {
			fmt.Printf("%d regressions beyond their bounds\n", worse)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fail(2, "unexpected arguments: "+strings.Join(flag.Args(), " "))
	}
	if *trace != 0 && *trace != 1 {
		fail(2, "-trace must be 0 or 1")
	}
	if !(*seconds > 0) {
		fail(2, "-seconds must be positive")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, cpuprofile: *cpuprof}

	if *name == "" {
		if err := runLedger(o, *out); err != nil {
			fail(1, err.Error())
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fail(2, fmt.Sprintf("unknown workload %q", *name))
	}
	rec, err := runWorkload(w, o)
	if err != nil {
		fail(1, err.Error())
	}
	printRecord(os.Stdout, rec)
	if *record != "" {
		if err := writeJSON(*record, rec); err != nil {
			fail(1, err.Error())
		}
	}
	line, err := json.Marshal(resultLine(rec, o.trace))
	if err != nil {
		fail(1, err.Error())
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "detourledger:", msg)
	os.Exit(code)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// resultLine is the one-line result: every listed metric of the run's
// kind, 0 for a layer the workload never enters.
func resultLine(rec *record, traced bool) result {
	r := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	for _, d := range listedMetrics(traced) {
		r.Metrics[d.name] = valueUnit{rec.Metrics[d.name].Value, d.unit}
	}
	return r
}

func printRecord(out io.Writer, rec *record) {
	status := "all checks passed"
	if !rec.Correct {
		status = fmt.Sprintf("%d check violations", len(rec.Violations))
	}
	fmt.Fprintf(out, "%s: %d batches from seed %d, %d ops, %s (%s)\n", rec.Workload, rec.Batches, rec.Seed, rec.Attempted, status, rec.Size)
	for _, d := range metricDefs {
		if m, ok := rec.Metrics[d.name]; ok {
			fmt.Fprintf(out, "  %-30s %14.6g %-6s q1 %.6g  q3 %.6g  n %d\n", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(out, "  VIOLATION", v)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ledgerFile is the stable schema -out writes and -compare reads.
type ledgerFile struct {
	Schema    int       `json:"schema"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Quick     bool      `json:"quick"`
	Workloads []*record `json:"workloads"`
}

const ledgerSchema = 1

// runLedger runs every workload in a child process, untraced for the
// end-to-end metrics and, with o.trace, traced for the per-layer ones.
func runLedger(o options, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	l := ledgerFile{Schema: ledgerSchema, Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	correct := true
	for _, w := range workloads {
		rec, err := runChild(exe, w, o, false, filepath.Dir(out))
		if err != nil {
			return err
		}
		if o.trace {
			tr, err := runChild(exe, w, o, true, filepath.Dir(out))
			if err != nil {
				return err
			}
			for name, m := range tr.Metrics {
				if d, _ := lookupMetric(name); !d.e2e {
					rec.Metrics[name] = m
				}
			}
			rec.Traced = true
			rec.Correct = rec.Correct && tr.Correct
			rec.Violations = append(rec.Violations, tr.Violations...)
		}
		correct = correct && rec.Correct
		l.Workloads = append(l.Workloads, rec)
	}
	if err := writeJSON(out, l); err != nil {
		return err
	}
	fmt.Printf("ledger: %d workloads from seed %d written to %s\n", len(l.Workloads), o.seed, out)
	if !correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runChild re-executes this binary on one workload and reads back its
// record. A child whose checks fail exits 1 but still writes a record.
func runChild(exe string, w *benchWorkload, o options, traced bool, dir string) (*record, error) {
	f, err := os.CreateTemp(dir, ".detourledger-record-*.json")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-record", path}
	if traced {
		args = append(args, "-trace", "1")
		if o.cpuprofile != "" {
			args = append(args, "-cpuprofile", o.cpuprofile+"."+w.name)
		}
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	var rec record
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &rec)
	}
	if err != nil || rec.Workload != w.name {
		return nil, fmt.Errorf("%s: no record (%v, exit %v)", w.name, err, runErr)
	}
	return &rec, nil
}
