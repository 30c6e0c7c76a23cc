//go:build race

package storage

// raceEnabled reports whether the race detector instruments the test binary;
// it allocates for every goroutine it tracks, so allocation counts differ.
const raceEnabled = true
