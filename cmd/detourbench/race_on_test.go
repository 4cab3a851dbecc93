//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector; TestGolden skips itself under it.
const raceEnabled = true
