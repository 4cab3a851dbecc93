//go:build race

package replay

// raceEnabled is true under the race detector. Replayed worlds are
// never freed, and with the detector on each one costs several MB.
const raceEnabled = true
