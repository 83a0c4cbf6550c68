//go:build race

package main

// raceEnabled reports whether the race detector is active; heavyweight grid
// tests skip under it (CI runs them in its race-free test step).
const raceEnabled = true
