//go:build race

package sim

// raceEnabled reports whether the race detector is active; allocation and
// scale tests skip under it (instrumentation changes both heap behavior
// and throughput); CI runs them in its race-free test step.
const raceEnabled = true
