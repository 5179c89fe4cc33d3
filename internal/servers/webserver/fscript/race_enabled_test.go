//go:build race

package fscript

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately randomizes its behavior under -race, so the pooled
// render path's zero-allocation contract is asserted in the normal build.
const raceEnabled = true
