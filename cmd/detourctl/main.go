// Command detourctl plans and executes one upload: direct, via a named
// DTN, or via the automatic probe-based selector — the workflow a user
// of the paper's system would run.
//
// Usage:
//
//	detourctl [-from ubc-pl] [-provider GoogleDrive|Dropbox|OneDrive]
//	          [-size 100] [-via auto|direct|ualberta|umich-pl]
//	          [-pipelined] [-seed N] [-drain dtn] [-multipath]
//
// An unknown -from, -provider, -via or -drain host, or a -size below
// 1 MB, exits 2 before any world is built.
//
// With -drain, the named DTN's agent is put into drain before the
// transfer plans: it refuses new relay work (an upload routed at it
// fails fast with a "draining" error; the auto selector routes around
// it) while transfers already holding a session there run to
// completion — the operator workflow for taking a DTN out of service
// during routing churn without stranding in-flight work.
//
// With -multipath, the upload is striped across all usable lanes at
// once — the direct route plus every in-service DTN detour — instead of
// picking one. The tool prints the per-path progress timeline (every
// chunk dispatch, completion, failure, and drain, tagged with its path
// and chunk IDs) followed by the per-path report: which chunks each
// lane carried, its committed bytes and rate, and the transfer's
// fairness index. -via is ignored in this mode; -drain still excludes
// the named DTN's lane.
//
// With -journal, the tool instead dumps a control-journal file: the
// record census, any torn tail a restart would truncate, and the folded
// state a restarted scheduler would recover — finished jobs, pending
// jobs with their checkpoints and idempotent attempt IDs, spent retry
// tokens, held cap slots. Point it at the file a `detourd`-style
// deployment (or replay.Crashsafe with a CrashLeg.JournalPath) writes; the
// dump only reads it. Transfer flags are ignored in this mode.
//
// The operator views of whole scheduler replays are printed by
// detourbench: `-experiment telemetry` (the telemetry dashboard),
// `-experiment grayfail` (the health table, transitions and retry
// budgets) and `-experiment pressure` (the staging-disk and provider
// quota tables).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"detournet/internal/core"
	"detournet/internal/detourselect"
	"detournet/internal/fileutil"
	"detournet/internal/multipath"
	"detournet/internal/scenario"
	"detournet/internal/sched"
	"detournet/internal/simproc"
)

func main() {
	var (
		from      = flag.String("from", scenario.UBC, "client host")
		provider  = flag.String("provider", scenario.GoogleDrive, "cloud-storage provider")
		sizeMB    = flag.Int("size", 100, "file size in MB")
		via       = flag.String("via", "auto", "route: auto, direct, or a DTN host")
		pipelined = flag.Bool("pipelined", false, "use the pipelined relay (detours only)")
		seed      = flag.Int64("seed", 2015, "world seed")
		traceOut  = flag.String("trace", "", "write the transfer trace as JSON lines to this file")
		drain     = flag.String("drain", "", "put this DTN's agent into drain before planning")
		mpath     = flag.Bool("multipath", false, "stripe the upload across direct + all in-service detours and show per-path progress")
		jdump     = flag.String("journal", "", "dump this control-journal file (records, torn tail, recovered state) and exit")
	)
	flag.Parse()

	if *jdump != "" {
		if err := sched.WriteJournalDump(os.Stdout, *jdump); err != nil {
			fmt.Fprintf(os.Stderr, "detourctl: journal: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if err := checkTransfer(*from, *provider, *sizeMB, *via, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "detourctl: %v\n", err)
		os.Exit(2)
	}
	w := scenario.Build(*seed)
	if *drain != "" {
		w.Agents[*drain].Drain()
		fmt.Printf("draining %s: new relay work refused, existing sessions run out\n", *drain)
	}
	file := fileutil.New("detourctl.bin", float64(*sizeMB)*fileutil.MB, *seed)

	exit := 0
	if *mpath {
		exit = runMultipath(w, *from, *provider, *drain, file)
		writeTrace(w, *traceOut, exit)
		os.Exit(exit)
	}
	w.RunWorkload("detourctl", func(p *simproc.Proc) {
		direct := w.NewSDKClient(*from, *provider)
		defer direct.Close()
		detours := map[string]*core.DetourClient{}
		for _, dtn := range scenario.DTNs {
			detours[dtn] = w.NewDetourClient(*from, dtn)
		}

		route := core.DirectRoute
		switch *via {
		case "auto":
			// The selector only probes DTNs in service: a draining agent
			// refuses probes, so auto mode routes around it.
			pool := map[string]*core.DetourClient{}
			for dtn, c := range detours {
				if dtn != *drain {
					pool[dtn] = c
				}
			}
			sel := detourselect.NewSelector()
			chosen, preds, err := sel.Choose(p, direct, pool, *provider, file.Size)
			if err != nil {
				fmt.Fprintf(os.Stderr, "detourctl: selection: %v\n", err)
				exit = 1
				return
			}
			fmt.Println("probe-based predictions:")
			for _, pr := range preds {
				fmt.Printf("  %-16s %8.2f s\n", pr.Route, pr.Seconds)
			}
			route = chosen
		case "direct":
		default:
			route = core.ViaRoute(*via)
		}

		var rep core.Report
		var err error
		if *pipelined && route.Kind == core.Detour {
			rep, err = detours[route.Via].UploadPipelined(p, *provider, file.Name, file.Size, file.MD5, 0)
		} else {
			rep, err = core.Upload(p, route, direct, detours, *provider, file.Name, file.Size, file.MD5)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "detourctl: upload: %v\n", err)
			exit = 1
			return
		}
		fmt.Printf("\nuploaded %d MB from %s to %s %s\n", *sizeMB, *from, *provider, rep.Route)
		if rep.Route.Kind == core.Detour && !*pipelined {
			fmt.Printf("  hop1 (rsync to DTN): %8.2f s\n", rep.Hop1)
			fmt.Printf("  hop2 (DTN upload):   %8.2f s\n", rep.Hop2)
		}
		fmt.Printf("  total:               %8.2f s  (%.2f MB/s)\n",
			rep.Total, file.Size/rep.Total/1e6)
	})
	writeTrace(w, *traceOut, exit)
	os.Exit(exit)
}

// checkTransfer rejects, before any world is built, a transfer whose
// flags name no host of the world or no bytes: -from must be a client
// site or a DTN, -provider one of the three providers, -size positive,
// -via auto, direct or a DTN, and -drain a DTN when set.
func checkTransfer(from, provider string, sizeMB int, via, drain string) error {
	if !slices.Contains(scenario.Clients, from) && !slices.Contains(scenario.DTNs, from) {
		return fmt.Errorf("unknown client %q (have %v and the DTNs %v)", from, scenario.Clients, scenario.DTNs)
	}
	if _, ok := scenario.Providers[provider]; !ok {
		return fmt.Errorf("unknown provider %q (have %v)", provider, scenario.ProviderNames)
	}
	if sizeMB <= 0 {
		return fmt.Errorf("-size %d: want a positive size in MB", sizeMB)
	}
	if via != "auto" && via != "direct" && !slices.Contains(scenario.DTNs, via) {
		return fmt.Errorf("unknown route %q (want auto, direct or a DTN of %v)", via, scenario.DTNs)
	}
	if drain != "" && !slices.Contains(scenario.DTNs, drain) {
		return fmt.Errorf("unknown DTN %q (have %v)", drain, scenario.DTNs)
	}
	return nil
}

func writeTrace(w *scenario.World, path string, exit int) {
	if path == "" || exit != 0 {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detourctl: trace: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := w.Trace.WriteJSONL(f); err != nil {
		fmt.Fprintf(os.Stderr, "detourctl: trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace written to %s (%d events)\n", path, w.Trace.Len())
}

// runMultipath stripes one upload, then prints the per-path progress
// timeline (from the trace's mp.* span events) and the per-path report.
func runMultipath(w *scenario.World, from, provider, drain string, file fileutil.TestFile) int {
	rep, err := stripe(w, from, provider, drain, file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detourctl: multipath upload: %v\n", err)
		return 1
	}
	fmt.Println("per-path progress (virtual time):")
	for _, ev := range w.Trace.Filter("mp") {
		fmt.Printf("  %s\n", ev.String())
	}
	fmt.Println()
	if err := rep.WriteReport(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "detourctl: report: %v\n", err)
		return 1
	}
	return 0
}

// stripe uploads file across the direct route plus every in-service DTN
// detour through the scheduler's executor.
func stripe(w *scenario.World, from, provider, drain string, file fileutil.TestFile) (multipath.Report, error) {
	routes := []core.Route{core.DirectRoute}
	for _, dtn := range scenario.DTNs {
		if dtn != drain { // a draining DTN refuses new relay work
			routes = append(routes, core.ViaRoute(dtn))
		}
	}
	job := sched.Job{Client: from, Provider: provider, Name: file.Name, Size: file.Size, MD5: file.MD5}
	return sched.NewSimExecutor(w).ExecuteMultipath(job, routes, core.DefaultResumeChunk)
}
