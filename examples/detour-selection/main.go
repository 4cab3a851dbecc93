// Detour selection: the paper stops at manually identifying the best
// detour ("we have not implemented an automatic detour selection
// algorithm"). This example runs the probe-based selector for every
// client × provider pair, prints its choice, then validates it against
// the actually-measured best route.
package main

import (
	"fmt"
	"io"
	"os"

	"detournet/internal/core"
	"detournet/internal/detourselect"
	"detournet/internal/fileutil"
	"detournet/internal/scenario"
	"detournet/internal/simproc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "detour-selection: %v\n", err)
		os.Exit(1)
	}
}

// run prints the selector's choice and the measured best route for
// every pair to out.
func run(out io.Writer) error {
	const sizeMB = 60
	fmt.Fprintf(out, "Automatic detour selection for %d MB uploads\n", sizeMB)
	fmt.Fprintf(out, "%-12s %-12s %-16s %-16s %s\n", "CLIENT", "PROVIDER", "SELECTED", "MEASURED BEST", "AGREE")

	for _, client := range scenario.Clients {
		for _, provider := range scenario.ProviderNames {
			// Fresh world per pair keeps probes from heating each other's
			// caches or connections.
			w := scenario.Build(4242)
			var err error
			w.RunWorkload("select", func(p *simproc.Proc) {
				direct := w.NewSDKClient(client, provider)
				defer direct.Close()
				detours := map[string]*core.DetourClient{}
				for _, dtn := range scenario.DTNs {
					detours[dtn] = w.NewDetourClient(client, dtn)
				}

				sel := detourselect.NewSelector()
				var chosen core.Route
				if chosen, _, err = sel.Choose(p, direct, detours, provider, sizeMB*fileutil.MB); err != nil {
					return
				}

				// Ground truth: actually run every route once.
				best := core.DirectRoute
				bestT := 0.0
				for i, route := range scenario.Routes() {
					f := fileutil.New(fmt.Sprintf("sel-%d.bin", i), sizeMB*fileutil.MB, int64(i))
					var rep core.Report
					if rep, err = core.Upload(p, route, direct, detours, provider, f.Name, f.Size, f.MD5); err != nil {
						return
					}
					if i == 0 || rep.Total < bestT {
						best, bestT = route, rep.Total
					}
				}
				agree := "yes"
				if chosen != best {
					agree = "no"
				}
				fmt.Fprintf(out, "%-12s %-12s %-16s %-16s %s\n", client, provider, chosen, best, agree)
			})
			w.Close()
			if err != nil {
				return fmt.Errorf("%s to %s: %w", client, provider, err)
			}
		}
	}
	return nil
}
