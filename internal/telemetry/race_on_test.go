//go:build race

package telemetry

// raceEnabled reports whether this test binary was built with the race
// detector, which drops sync.Pool puts at random.
const raceEnabled = true
