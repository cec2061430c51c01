//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in; the
// allocation budgets of TestHitPathAllocs do not hold under it.
const raceEnabled = false
