//go:build !race

package sched_test

// raceEnabled reports whether this test binary was built with the race
// detector; timing-sensitive guards skip themselves under it.
const raceEnabled = false
