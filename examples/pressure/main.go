// Pressure: the storage-exhaustion schedule replayed twice over the
// same fleet and seed — once as the ablation (no eviction, no capacity
// oracle, a reclaim pass that frees nothing, no spill targets) and
// once with the full mitigation ladder: LRU eviction of stale staged
// state, spill-aware placement that steers detours away from
// nearly-full DTNs, provider-session reclamation on the first 507,
// spill to alternate providers, and journal degradation to in-memory
// folding when the log device fills. The report contrasts goodput and
// dumps the final staging-disk and quota accounting; output is
// byte-identical per seed, which `make golden-check` compares against testdata/golden.
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

	replay.WritePressure(os.Stdout, *seed, *jobs)
}
