//go:build !linux

package main

import "time"

func lowerTimerSlack() {}

func preciseSleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func pinToCPU(cpu int) {}

// threadCPUNs is not available here; callers then take wall time.
func threadCPUNs() int64 { return 0 }
