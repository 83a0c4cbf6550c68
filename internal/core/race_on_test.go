//go:build race

package core_test

// raceEnabled reports whether the race detector is active; the long window
// bound runs skip under it.
const raceEnabled = true
