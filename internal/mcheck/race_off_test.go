//go:build !race

package mcheck

// raceEnabled reports that this test binary runs under the race detector,
// which only slows the exhaustive single-goroutine checks down.
const raceEnabled = false
