//go:build !race

package explore

// raceEnabled reports whether the race detector is active; heavyweight scale
// tests skip under it (CI runs them in its race-free test step).
const raceEnabled = false
