// Grayfail: the gray-failure schedule replayed twice over the same
// fleet and seed — once as the Health == nil ablation (same scheduler,
// same retries, no detection layer) and once with the health stack:
// stall watchdogs that abort-with-checkpoint transfers blowing their
// adaptive time budget or making no byte progress, outlier ejection
// that down-weights sustained laggards into probation with canary
// re-admission, and per-provider retry budgets. None of the injected
// degradations return an error; the ablation only escapes them through
// the bandit's slow relearning. The report contrasts goodput, shows
// detection latency per silent window, and dumps the final health
// table; output is byte-identical per seed, which `make golden-check` compares against testdata/golden.
package main

import (
	"flag"
	"os"

	"detournet/internal/replay"
)

func main() {
	seed := flag.Int64("seed", 2015, "world/fault seed")
	jobs := flag.Int("jobs", 60, "transfers in the fleet")
	flag.Parse()

	replay.WriteGrayfail(os.Stdout, *seed, *jobs)
}
