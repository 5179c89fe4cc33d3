//go:build !race

package netkit

// raceEnabled reports that the race detector is active; see the race
// build's twin for why the allocation budget consults it.
const raceEnabled = false
