// Telemetry: the observability plane watching a flash crowd ride out
// the BGP reconvergence storm. One instrumented replay drives ~40
// transfers through a deliberately thin scheduler stack (one retry, a
// short park budget) while the full telemetry plane records it: a
// metrics registry counts every election, retry, reroute, park, and
// failure class; a virtual-clock sampler captures per-window time
// series (link utilization on the paper's key hand-offs, queue depth,
// DTN staging fill, provider quota headroom, journal size, active
// flows); and a per-job flight recorder keeps the complete decision
// trace of every transfer that fails — election, attempts, reroutes,
// parks, and the classified error at each hop — while truncating the
// traces of jobs that succeed.
//
// The program prints a compact telemetry line every -dump-every virtual
// seconds as the drain runs, then the operator dashboard (sparklines),
// then the full report: headline stats, every time series, the failed
// jobs' decision traces event by event, and the Prometheus text dump.
// Output is byte-identical per seed — the whole plane rides the virtual
// clock — which `make golden-check` compares against testdata/golden.
package main

import (
	"flag"
	"os"

	"detournet/internal/replay"
)

func main() {
	// Seed 7 is the committed default: under the storm it fails exactly
	// one transfer, so the report always includes a complete failed-job
	// decision trace (the default evaluation seed 2015 drains clean).
	seed := flag.Int64("seed", 7, "world/fault/fleet seed")
	jobs := flag.Int("jobs", 40, "transfers in the flash crowd")
	dumpEvery := flag.Float64("dump-every", 120, "virtual seconds between live telemetry lines (0 = quiet)")
	flag.Parse()

	replay.WriteTelemetry(os.Stdout, *seed, *jobs, *dumpEvery)
}
