// Provider sweep: a miniature Table I — measure every client × provider
// × route cell at one file size and print the fastest/slowest summary
// matrix, demonstrating the measurement harness API end to end.
package main

import (
	"fmt"
	"io"
	"os"

	"detournet/internal/measure"
	"detournet/internal/scenario"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "provider-sweep: %v\n", err)
		os.Exit(1)
	}
}

// run prints the summary matrix to out.
func run(out io.Writer) error {
	const sizeMB = 40
	fmt.Fprintf(out, "Route summary for %d MB uploads (3 runs, mean of last 2)\n\n", sizeMB)
	fmt.Fprintf(out, "%-12s", "")
	for _, p := range scenario.ProviderNames {
		fmt.Fprintf(out, " | %-34s", p)
	}
	fmt.Fprintln(out)

	for _, client := range scenario.Clients {
		fmt.Fprintf(out, "%-12s", client)
		for _, provider := range scenario.ProviderNames {
			w := scenario.Build(31337)
			g := measure.RunGrid(w, measure.GridSpec{
				Client: client, Provider: provider,
				SizesMB: []int{sizeMB},
				Runs:    3, Keep: 2, Seed: 1,
			})
			fast := g.Fastest(sizeMB)
			slow := g.Slowest(sizeMB)
			cell := fmt.Sprintf("best %s (%.0fs), worst %s",
				fast, g.Cell(sizeMB, fast).Summary.Mean, slow)
			fmt.Fprintf(out, " | %-34s", cell)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "\nCompare with the paper's Table I: detours win for Google Drive from")
	fmt.Fprintln(out, "UBC (via UAlberta) and Purdue (either detour); direct wins elsewhere.")
	return nil
}
