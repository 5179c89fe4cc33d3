package runtime

import (
	"sync"
	"sync/atomic"
)

// deque is the per-dispatcher run queue of the event-driven engine: a
// growable ring with a LIFO owner end and a FIFO steal end. The owner
// pushes and pops at the bottom (newest first, so a continuation runs
// while its flow's state is still cache-hot); thieves take from the top
// (oldest first), preserving rough admission order for work that does
// migrate.
//
// A deque is guarded by one mutex rather than implemented lock-free
// (Chase-Lev): the mutex is private to one dispatcher plus occasional
// thieves, so it is almost always uncontended — the scaling win over one
// engine-wide event queue comes from sharding, not from removing the
// last uncontended lock. The mutex also makes cross-dispatcher pushes
// (lock grants, injection spills) trivially safe.
//
// stealHalf deliberately copies into a caller-owned scratch buffer and
// never touches the thief's deque, so no operation holds two deque
// mutexes at once — two dispatchers stealing from each other cannot
// deadlock.
const dequeMinCap = 64

type deque[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int // index of the oldest element (steal end)
	size int
	// asize mirrors size with sequentially-consistent atomics, so the
	// hot probes — the pre-park verification scan, observer
	// sampling — read the length without
	// taking the mutex. Writers update it while holding mu.
	asize atomic.Int32
}

// push appends v at the bottom (newest, owner end).
func (d *deque[T]) push(v T) {
	d.mu.Lock()
	if d.size == len(d.buf) {
		d.growLocked()
	}
	d.buf[(d.head+d.size)&(len(d.buf)-1)] = v
	d.size++
	d.asize.Store(int32(d.size))
	d.mu.Unlock()
}

// pop removes and returns the bottom (newest) element — the owner's
// LIFO end.
func (d *deque[T]) pop() (v T, ok bool) {
	d.mu.Lock()
	if d.size == 0 {
		d.mu.Unlock()
		return v, false
	}
	d.size--
	i := (d.head + d.size) & (len(d.buf) - 1)
	v = d.buf[i]
	var zero T
	d.buf[i] = zero // release for GC
	d.asize.Store(int32(d.size))
	d.mu.Unlock()
	return v, true
}

// popBatch removes up to len(buf) elements from the bottom — newest
// first, preserving the owner's LIFO order exactly as repeated pop
// calls would — in one mutex round trip, and reports how many were
// taken. Under backlog the owner's mutex amortizes over the batch (the
// deque analogue of the fifo's popBatch); with a short deque it
// degenerates to pop, so thieves are not starved by the owner
// claiming everything.
func (d *deque[T]) popBatch(buf []T) int {
	d.mu.Lock()
	n := len(buf)
	if n > d.size {
		n = d.size
	}
	var zero T
	for i := 0; i < n; i++ {
		d.size--
		j := (d.head + d.size) & (len(d.buf) - 1)
		buf[i] = d.buf[j]
		d.buf[j] = zero // release for GC
	}
	if n > 0 {
		d.asize.Store(int32(d.size))
	}
	d.mu.Unlock()
	return n
}

// stealHalf moves the oldest ceil(n/2) elements into *scratch (reset to
// length zero first, grown as needed) in FIFO order, and reports how
// many were taken. The scratch buffer is reused across calls by the
// stealing dispatcher, so steady-state stealing does not allocate.
func (d *deque[T]) stealHalf(scratch *[]T) int {
	d.mu.Lock()
	n := d.size - d.size/2 // ceil: a single queued item is worth taking
	if n == 0 {
		d.mu.Unlock()
		return 0
	}
	*scratch = (*scratch)[:0]
	var zero T
	for i := 0; i < n; i++ {
		*scratch = append(*scratch, d.buf[d.head])
		d.buf[d.head] = zero
		d.head = (d.head + 1) & (len(d.buf) - 1)
	}
	d.size -= n
	d.asize.Store(int32(d.size))
	d.mu.Unlock()
	return n
}

// len reports the current element count without taking the mutex — the
// value is exact at some recent instant, which is all the heuristic
// probes (pre-arm, park verification, sampling) need; the
// sequentially-consistent store/load pairing with the parked flag is
// what makes the parking protocol sound.
func (d *deque[T]) len() int {
	return int(d.asize.Load())
}

// growLocked doubles the ring (or allocates the initial one),
// linearizing the elements to the front. Capacity stays a power of two
// so indexing is a mask, not a modulo.
func (d *deque[T]) growLocked() {
	newCap := dequeMinCap
	if len(d.buf) > 0 {
		newCap = 2 * len(d.buf)
	}
	nb := make([]T, newCap)
	for i := 0; i < d.size; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}
