package main

import (
	"syscall"
	"unsafe"
)

// The Go runtime rounds a sleep shorter than a millisecond up to one when
// every P is idle, which would make an open-loop generator about a
// millisecond late on every request. The open loop therefore sleeps in
// nanosleep(2) on the thread its goroutine is pinned to, with the thread's
// timer slack (50 us by default) turned down.

const prSetTimerslack = 29 // PR_SET_TIMERSLACK

// lowerTimerSlack turns the calling thread's timer slack down to 1 ns.
func lowerTimerSlack() {
	// A refusal only leaves the default slack in place, and the lateness
	// guard measures the outcome either way.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// preciseSleepUntil blocks the calling thread until the monotonic instant t.
func preciseSleepUntil(t int64) {
	for {
		d := t - nowNs()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// pinToCPU restricts the calling thread to one processor.
func pinToCPU(cpu int) {
	var mask [16]uint64 // 1024 processors
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// threadCPUNs is the processor time the calling thread has used.
func threadCPUNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(1 /* RUSAGE_THREAD */, &ru) // cannot fail with a valid who and pointer
	return (tvMicros(ru.Utime) + tvMicros(ru.Stime)) * 1000
}
