// Multipath: stripe one upload across the direct route and the DTN
// detours at once, and compare against the best single path — the
// natural next question after the paper's "pick the one fastest route"
// selector. For every site/provider pair the program measures each
// single route on an idle network, then re-runs the same transfer
// striped through the scheduler's JobMultipath mode, where a
// work-conserving chunk ledger feeds each lane at its own pace and
// hedges stragglers under a duplication cap.
//
// The topology's geometry shows up directly in the numbers: sites
// whose direct and detour paths bottleneck on disjoint links (UBC)
// gain up to ~1.5x over their best single path, while sites capped by
// a shared last mile (UCLA) cannot gain — there striping must merely
// not lose (never more than 5% below the best single path).
//
// A churn leg then drives one large striped transfer into the BGP
// reconvergence storm (internal/faults.ChurnSchedule): lanes crossing
// converging sessions drain make-before-break, failed chunks re-enter
// the ledger, and per-path checkpoints bound re-sent bytes to at most
// one chunk per failure.
//
// Output is byte-identical per seed, which `make golden-check` compares against testdata/golden.
package main

import (
	"flag"
	"fmt"
	"os"

	"detournet/internal/replay"
)

func main() {
	seed := flag.Int64("seed", 2015, "world seed")
	sizeMB := flag.Float64("size", 96, "MB per compared transfer")
	churnMB := flag.Float64("churn-size", 480, "MB for the churn leg")
	flag.Parse()

	if err := replay.WriteMultipath(os.Stdout, *seed, *sizeMB*1e6, *churnMB*1e6); err != nil {
		fmt.Fprintf(os.Stderr, "multipath: %v\n", err)
		os.Exit(1)
	}
}
