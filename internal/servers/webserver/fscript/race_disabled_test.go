//go:build !race

package fscript

// raceEnabled reports that the race detector is active; see the race
// build's twin for why the zero-allocation test consults it.
const raceEnabled = false
