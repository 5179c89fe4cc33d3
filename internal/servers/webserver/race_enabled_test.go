//go:build race

package webserver

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops objects under -race, so the zero-allocation test
// asserts recycling in the normal build only.
const raceEnabled = true
