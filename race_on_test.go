//go:build race

package detournet

// raceEnabled reports whether this test binary was built with the race
// detector; the source scan skips itself under it.
const raceEnabled = true
