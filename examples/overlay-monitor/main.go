// Overlay monitoring: the paper's future work — "monitor and bypass
// dynamic bottlenecks on the WAN". An overlay mesh over the research
// sites probes itself periodically; mid-run, a congestion episode is
// injected on the BCNet hand-off into CANARIE, and the mesh reroutes
// UBC→UAlberta traffic through UMich until the episode clears.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"detournet/internal/overlay"
	"detournet/internal/scenario"
	"detournet/internal/simproc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "overlay-monitor: %v\n", err)
		os.Exit(1)
	}
}

// run prints the mesh's best path before, during and after the episode
// to out.
func run(out io.Writer) error {
	w := scenario.Build(7)
	defer w.Close()

	// Every member site runs an overlay daemon.
	members := []string{scenario.UBC, scenario.UAlberta, scenario.UMich}
	for _, m := range members {
		overlay.NewDaemon(w.Net, m).Start()
	}
	mesh := overlay.NewMesh(w.Net, scenario.UBC, members)
	mesh.Alpha = 0.8 // adapt quickly for the demo

	report := func(p *simproc.Proc, label string) {
		path, bw := mesh.BestPath(scenario.UBC, scenario.UAlberta)
		fmt.Fprintf(out, "t=%6.0fs  %-28s best path: %-40s (bottleneck %.2f MB/s)\n",
			float64(p.Now()), label, strings.Join(path, " -> "), bw/1e6)
	}

	var err error
	w.RunWorkload("overlay-monitor", func(p *simproc.Proc) {
		stop := mesh.Monitor(10)
		defer stop()

		p.Sleep(30)
		report(p, "steady state")

		// A congestion episode hits the BCNet hand-off into CANARIE (a
		// link with no modelled background process, so the injected load
		// persists until we clear it).
		e, ok := w.Graph.Edge("bcnet", "vncv1")
		if !ok {
			err = errors.New("missing bcnet hand-off")
			return
		}
		w.Graph.Fluid().SetLinkLoad(e.Link, 0.97)
		fmt.Fprintln(out, "\n*** congestion episode on bcnet -> vncv1 (97% load) ***")
		p.Sleep(40)
		report(p, "during episode")

		// Transfer rides the detour the monitor found.
		var path []string
		var sec float64
		if path, sec, err = mesh.Send(p, scenario.UBC, scenario.UAlberta, 50e6); err != nil {
			return
		}
		fmt.Fprintf(out, "          50 MB transfer took %.1f s via %s\n", sec, strings.Join(path, " -> "))

		// The episode clears; the mesh converges back to the direct path.
		w.Graph.Fluid().SetLinkLoad(e.Link, 0)
		fmt.Fprintln(out, "\n*** episode cleared ***")
		p.Sleep(40)
		report(p, "after recovery")
	})
	return err
}
