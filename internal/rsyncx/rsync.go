// Package rsyncx is the rsync daemon/client pair over the simulated
// transport — the tool the paper uses for the first hop of every
// detour (client → intermediate DTN) — with the DTN's staging disk:
// resumable chunked pushes, per-chunk manifests and repair, and a
// finite capacity.
//
// The paper deletes the staged copy before each run, so its detours
// never have a basis and rsync's delta transfer never runs: a push is
// sized (the file's bytes are timed on the wire, not materialized),
// and its wire cost is the size plus protocol overhead.
package rsyncx

import (
	"crypto/md5"
	"fmt"
)

// Checksum is a whole-file digest used for end-to-end verification.
func Checksum(p []byte) string {
	s := md5.Sum(p)
	return fmt.Sprintf("%x", s)
}
