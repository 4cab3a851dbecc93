// Command detourbench regenerates every table and figure of the paper's
// evaluation from the simulated world and prints them as text.
//
// Usage:
//
//	detourbench [-experiment all|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table1|table2|table3|table4|table5]
//	            [-seed N] [-runs N] [-keep N] [-sizes 10,20,...] [-quick]
//
// The default -seed 2015 with the full protocol reproduces the values
// recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"detournet/internal/experiments"
	"detournet/internal/measure"
	"detournet/internal/report"
	"detournet/internal/scenario"
)

func main() {
	var (
		which  = flag.String("experiment", "all", "which experiment to run (all, fig2..fig11, table1..table5, dump, workload, download, sensitivity, contention, report)")
		seed   = flag.Int64("seed", 2015, "world seed (cross-traffic, jitter)")
		runs   = flag.Int("runs", 7, "runs per measurement cell")
		keep   = flag.Int("keep", 5, "runs retained for the mean (last N)")
		sizes  = flag.String("sizes", "", "comma-separated file sizes in MB (default: paper's 10,20,30,40,50,60,100)")
		quick  = flag.Bool("quick", false, "reduced protocol (3 sizes, 3 runs) for a fast smoke run")
		format = flag.String("format", "csv", "output format for -experiment dump: csv or json")
	)
	flag.Parse()

	o := experiments.Options{Seed: *seed, Runs: *runs, Keep: *keep}
	if *quick {
		o = experiments.Quick()
		o.Seed = *seed
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || mb <= 0 {
				fmt.Fprintf(os.Stderr, "detourbench: bad size %q\n", s)
				os.Exit(2)
			}
			o.SizesMB = append(o.SizesMB, mb)
		}
	}
	suite := &experiments.Suite{Options: o}

	runners := map[string]func() string{
		"fig2":   suite.Fig2,
		"fig3":   suite.Fig3,
		"fig4":   suite.Fig4,
		"fig5":   suite.Fig5,
		"fig6":   suite.Fig6,
		"fig7":   suite.Fig7,
		"fig8":   suite.Fig8,
		"fig9":   suite.Fig9,
		"fig10":  suite.Fig10,
		"fig11":  suite.Fig11,
		"table1": suite.TableI,
		"table2": suite.TableII,
		"table3": suite.TableIII,
		"table4": suite.TableIV,
		"table5": suite.TableV,
	}
	order := []string{"fig2", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "table3", "fig8", "fig9", "table4", "fig10", "fig11", "table1", "table5"}

	if *which == "report" {
		if err := report.Write(os.Stdout, report.Config{Options: o, Extensions: true}); err != nil {
			fmt.Fprintf(os.Stderr, "detourbench: report: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *which == "download" {
		// Extension: the reverse direction for every client, Google Drive.
		for _, c := range scenario.Clients {
			w := scenario.Build(o.Seed)
			g := measure.RunGrid(w, measure.GridSpec{
				Client: c, Provider: scenario.GoogleDrive,
				Direction: measure.Download,
				SizesMB:   o.SizesMB, Runs: o.Runs, Keep: o.Keep, Seed: o.Seed,
			})
			fmt.Printf("Download times %s <- GoogleDrive\n%s\n", c, g.FormatTable())
		}
		return
	}
	if *which == "sensitivity" {
		points := experiments.SensitivityPacificWave(o, []float64{0.6, 1.25, 2.5, 4, 6, 8})
		fmt.Println(experiments.FormatSensitivity(points))
		return
	}
	if *which == "contention" {
		results, err := experiments.ContentionStudy(o, [][]string{
			{scenario.UBC},
			{scenario.UBC, scenario.Purdue},
			{scenario.UBC, scenario.Purdue, scenario.UCLA},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "detourbench: contention: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatContention(results))
		return
	}
	if *which == "workload" {
		for _, c := range scenario.Clients {
			results, err := experiments.WorkloadStudy(o, c, scenario.GoogleDrive, 12)
			if err != nil {
				fmt.Fprintf(os.Stderr, "detourbench: workload: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(experiments.FormatWorkloadStudy(c, scenario.GoogleDrive, results))
		}
		return
	}
	if *which == "dump" {
		// Machine-readable export of every grid, for plotting.
		for _, c := range scenario.Clients {
			for _, p := range scenario.ProviderNames {
				pr := experiments.RunPair(o, c, p)
				var err error
				if *format == "json" {
					err = pr.Grid.WriteJSON(os.Stdout)
				} else {
					err = pr.Grid.WriteCSV(os.Stdout)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "detourbench: export: %v\n", err)
					os.Exit(1)
				}
			}
		}
		return
	}
	if *which == "all" {
		for _, name := range order {
			fmt.Println(runners[name]())
			fmt.Println()
		}
		return
	}
	fn, ok := runners[strings.ToLower(*which)]
	if !ok {
		fmt.Fprintf(os.Stderr, "detourbench: unknown experiment %q (want all, %s)\n",
			*which, strings.Join(order, ", "))
		os.Exit(2)
	}
	fmt.Println(fn())
}
