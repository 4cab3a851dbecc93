// Churn: a BGP reconvergence storm replayed twice over the same fleet
// and seed — once as an ablated control (one attempt, no recovery,
// TTL-only route caching) and once with the churn stack: staged
// per-domain convergence with transient blackholes and TTL loops,
// push-based route invalidation off the event bus, make-before-break
// rerouting of in-flight transfers, parking on total route loss, and a
// DTN drain. The report contrasts survival, re-sent bytes, and parked
// (blackhole) seconds; output is byte-identical per seed, which `make
// golden-check` verifies against testdata/golden.
package main

import (
	"flag"
	"os"

	"detournet/internal/replay"
)

func main() {
	seed := flag.Int64("seed", 2015, "world/storm seed")
	jobs := flag.Int("jobs", 36, "transfers in the fleet")
	flag.Parse()

	replay.WriteChurn(os.Stdout, *seed, *jobs)
}
