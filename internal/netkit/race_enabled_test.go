//go:build race

package netkit

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops objects under -race, so the allocation budget is
// asserted in the normal build only.
const raceEnabled = true
