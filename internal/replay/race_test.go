//go:build race

package replay

// raceEnabled is true under the race detector. The detector keeps the
// state of every coroutine that has exited, so each replayed world
// still costs several MB after it is closed.
const raceEnabled = true
