// Crashsafe: the crash-consistency sweep. A journaled scheduler
// drives a fixed fleet and is killed at every enumerated control-plane
// crash point in turn — after a submit record, before/after an attempt
// record, mid-write of a journal record (torn append), mid-transfer on
// either hop, in the commit-versus-ack window around the finish
// record, and at the start of a compaction — then restarted on the
// same journal device. Replay truncates any torn tail, re-seats
// journaled finishes, and resumes in-flight transfers from their
// checkpoints under their original idempotent attempt IDs. Two extra
// legs decay the storage itself: staged chunks rot while the process
// is down (recovery re-fetches only the damaged chunks), and the
// journal itself is bit-rotted and torn (recovery trusts the longest
// valid prefix and prechecks its way past the lost records).
//
// Every leg must converge byte-identical to the crash-free control
// with no object committed twice. Output is byte-identical per seed,
// which `make golden-check` compares against testdata/golden.
package main

import (
	"flag"
	"fmt"
	"os"

	"detournet/internal/replay"
)

func main() {
	seed := flag.Int64("seed", 2015, "world/fault seed")
	flag.Parse()

	if err := replay.WriteCrashsafe(os.Stdout, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "crashsafe: %v\n", err)
		os.Exit(1)
	}
}
