//go:build !race

package checkpoint

// raceEnabled reports whether the race detector is compiled in; the
// allocation pin of TestCaptureBlobIsItsBytes does not hold under it.
const raceEnabled = false
