// Command detourbench regenerates every table and figure of the paper's
// evaluation from the simulated world, the extensions built on it, and
// every scheduler replay, and prints them as text.
//
// Usage:
//
//	detourbench [-experiment all|fig2|table2|fig3|fig4|fig5|fig6|fig7|table3|fig8|fig9|table4|fig10|fig11|table1|table5
//	                        |report|download|sensitivity|contention|workload|dump
//	                        |churn|crashsafe|grayfail|multipath|overload|pressure|telemetry|chaos|fleet]
//	            [-seed N] [-runs N] [-keep N] [-sizes 10,20,...] [-quick] [-format csv|json]
//
// all, the default, prints every figure and table in paper order.
// Names are case-insensitive. The default -seed 2015 with the full
// protocol reproduces the values recorded in EXPERIMENTS.md.
// A bad name, size or protocol (-runs below 1, -keep outside 1..runs)
// exits 2 before any world is built.
//
// The last nine names are the scheduler replays of internal/replay; they
// read only -seed. Without it each runs at the seed its golden under
// testdata/golden was committed at: 7 for telemetry (under the storm it
// fails exactly one transfer, so the report always includes a complete
// failed-job decision trace) and 2015 for the rest. chaos and fleet
// drain on eight real workers, so their reports vary between runs. A
// replay whose acceptance check breaks exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"detournet/internal/experiments"
	"detournet/internal/measure"
	"detournet/internal/replay"
	"detournet/internal/report"
	"detournet/internal/scenario"
)

// experiment is one name -experiment accepts.
type experiment struct {
	name string
	// paper marks the figures and tables that all prints.
	paper bool
	// seed, when set, is the seed the name runs at without -seed: the
	// one its golden was committed at.
	seed int64
	// golden names the file under testdata/golden that pins what the
	// name prints with default flags; empty when nothing pins it.
	golden string
	run    func(s *experiments.Suite, out io.Writer) error
}

// paper prints one of the paper's figures or tables.
func paper(name string, f func(*experiments.Suite) string) experiment {
	return experiment{name: name, paper: true, golden: "detourbench-" + name + ".txt",
		run: func(s *experiments.Suite, out io.Writer) error {
			_, err := fmt.Fprintln(out, f(s))
			return err
		}}
}

// replayMode prints one scheduler replay at the suite's seed.
func replayMode(name string, seed int64, f func(io.Writer, int64) error) experiment {
	return experiment{name: name, seed: seed, golden: "example-" + name + ".txt",
		run: func(s *experiments.Suite, out io.Writer) error {
			return f(out, s.Options.Seed)
		}}
}

// unpinned drops a replay's golden: it drains on eight real workers, so
// its report varies between runs.
func unpinned(e experiment) experiment {
	e.golden = ""
	return e
}

// unchecked adapts a replay report that has no acceptance check.
func unchecked(f func(io.Writer, int64)) func(io.Writer, int64) error {
	return func(out io.Writer, seed int64) error {
		f(out, seed)
		return nil
	}
}

var (
	// format is -format: how -experiment dump writes its grids.
	format string

	table = []experiment{
		paper("fig2", (*experiments.Suite).Fig2),
		paper("table2", (*experiments.Suite).TableII),
		paper("fig3", (*experiments.Suite).Fig3),
		paper("fig4", (*experiments.Suite).Fig4),
		paper("fig5", (*experiments.Suite).Fig5),
		paper("fig6", (*experiments.Suite).Fig6),
		paper("fig7", (*experiments.Suite).Fig7),
		paper("table3", (*experiments.Suite).TableIII),
		paper("fig8", (*experiments.Suite).Fig8),
		paper("fig9", (*experiments.Suite).Fig9),
		paper("table4", (*experiments.Suite).TableIV),
		paper("fig10", (*experiments.Suite).Fig10),
		paper("fig11", (*experiments.Suite).Fig11),
		paper("table1", (*experiments.Suite).TableI),
		paper("table5", (*experiments.Suite).TableV),
		{name: "report", run: writeReport},
		{name: "download", run: writeDownload},
		{name: "sensitivity", run: writeSensitivity},
		{name: "contention", run: writeContention},
		{name: "workload", run: writeWorkload},
		{name: "dump", run: writeDump},
		replayMode("churn", 2015, func(out io.Writer, seed int64) error {
			replay.WriteChurn(out, seed)
			return nil
		}),
		replayMode("crashsafe", 2015, replay.WriteCrashsafe),
		replayMode("grayfail", 2015, unchecked(replay.WriteGrayfail)),
		replayMode("multipath", 2015, replay.WriteMultipath),
		replayMode("overload", 2015, unchecked(replay.WriteOverload)),
		replayMode("pressure", 2015, unchecked(replay.WritePressure)),
		replayMode("telemetry", 7, unchecked(replay.WriteTelemetry)),
		unpinned(replayMode("chaos", 2015, unchecked(replay.WriteChaos))),
		unpinned(replayMode("fleet", 2015, unchecked(replay.WriteFleet))),
	}
)

// defaults is the protocol detourbench runs without flags.
var defaults = experiments.Options{Seed: 2015, Runs: 7, Keep: 5}

// names lists every accepted -experiment name.
func names() string {
	out := []string{"all"}
	for _, e := range table {
		out = append(out, e.name)
	}
	return strings.Join(out, ", ")
}

// selected returns what -experiment name runs, matched
// case-insensitively: every paper figure and table for all, else the
// one entry of that name (none when unknown).
func selected(name string) []experiment {
	name = strings.ToLower(name)
	var out []experiment
	for _, e := range table {
		if e.name == name || (name == "all" && e.paper) {
			out = append(out, e)
		}
	}
	return out
}

func main() {
	todo, o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "detourbench: %v\n", err)
		os.Exit(2)
	}
	suite := &experiments.Suite{Options: o}

	for _, e := range todo {
		if err := e.run(suite, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "detourbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if len(todo) > 1 {
			fmt.Println()
		}
	}
}

// parse reads the command line into fs: the names to run and the
// protocol to run them with. It builds no world, so a bad flag fails
// before any work.
func parse(fs *flag.FlagSet, args []string) ([]experiment, experiments.Options, error) {
	var (
		which = fs.String("experiment", "all", "which experiment to run ("+names()+")")
		seed  = fs.Int64("seed", defaults.Seed, "world seed (cross-traffic, jitter)")
		runs  = fs.Int("runs", defaults.Runs, "runs per measurement cell")
		keep  = fs.Int("keep", defaults.Keep, "runs retained for the mean (last N)")
		sizes = fs.String("sizes", "", "comma-separated file sizes in MB (default: paper's 10,20,30,40,50,60,100)")
		quick = fs.Bool("quick", false, "reduced protocol (3 sizes, 3 runs) for a fast smoke run")
	)
	fs.StringVar(&format, "format", "csv", "output format for -experiment dump: csv or json")
	if err := fs.Parse(args); err != nil {
		return nil, experiments.Options{}, err
	}

	todo := selected(*which)
	if len(todo) == 0 {
		return nil, experiments.Options{}, fmt.Errorf("unknown experiment %q (want %s)", *which, names())
	}

	o := experiments.Options{Seed: *seed, Runs: *runs, Keep: *keep}
	if *quick {
		o = experiments.Quick()
		o.Seed = *seed
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if e := todo[0]; !seedSet && e.seed != 0 {
		o.Seed = e.seed
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || mb <= 0 {
				return nil, experiments.Options{}, fmt.Errorf("bad size %q", s)
			}
			o.SizesMB = append(o.SizesMB, mb)
		}
	}
	if o.Runs < 1 || o.Keep < 1 || o.Keep > o.Runs {
		return nil, experiments.Options{}, fmt.Errorf("-runs %d -keep %d: want runs >= 1 and 1 <= keep <= runs", o.Runs, o.Keep)
	}
	return todo, o, nil
}

// writeReport prints the full evaluation report with its extensions.
func writeReport(s *experiments.Suite, out io.Writer) error {
	return report.Write(out, report.Config{Options: s.Options, Extensions: true})
}

// writeDownload prints the reverse direction for every client, Google
// Drive.
func writeDownload(s *experiments.Suite, out io.Writer) error {
	o := s.Options
	for _, c := range scenario.Clients {
		w := scenario.Build(o.Seed)
		g := measure.RunGrid(w, measure.GridSpec{
			Client: c, Provider: scenario.GoogleDrive,
			Direction: measure.Download,
			SizesMB:   o.SizesMB, Runs: o.Runs, Keep: o.Keep, Seed: o.Seed,
		})
		fmt.Fprintf(out, "Download times %s <- GoogleDrive\n%s\n", c, g.FormatTable())
	}
	return nil
}

// writeSensitivity sweeps the PacificWave hand-off's rate.
func writeSensitivity(s *experiments.Suite, out io.Writer) error {
	points := experiments.SensitivityPacificWave(s.Options, []float64{0.6, 1.25, 2.5, 4, 6, 8})
	fmt.Fprintln(out, experiments.FormatSensitivity(points))
	return nil
}

// writeContention prints one to three campuses uploading at once.
func writeContention(s *experiments.Suite, out io.Writer) error {
	results, err := experiments.ContentionStudy(s.Options, [][]string{
		{scenario.UBC},
		{scenario.UBC, scenario.Purdue},
		{scenario.UBC, scenario.Purdue, scenario.UCLA},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.FormatContention(results))
	return nil
}

// writeWorkload prints each client's mixed-workload study to Google
// Drive.
func writeWorkload(s *experiments.Suite, out io.Writer) error {
	for _, c := range scenario.Clients {
		results, err := experiments.WorkloadStudy(s.Options, c, scenario.GoogleDrive, 12)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatWorkloadStudy(c, scenario.GoogleDrive, results))
	}
	return nil
}

// writeDump exports every grid in -format, for plotting.
func writeDump(s *experiments.Suite, out io.Writer) error {
	for _, c := range scenario.Clients {
		for _, p := range scenario.ProviderNames {
			pr := experiments.RunPair(s.Options, c, p)
			var err error
			if format == "json" {
				err = pr.Grid.WriteJSON(out)
			} else {
				err = pr.Grid.WriteCSV(out)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
