package runtime

import "sync"

// fifo is an unbounded FIFO queue with blocking pop, used for thread-pool
// admission (flows queue when all workers are busy, §3.2.1) and for the
// event-driven engine's injection and async-offload queues (§3.2.2). A
// channel would impose a fixed capacity; the paper's queues are
// unbounded.
//
// Storage is a linked list of fixed-size chunks. Compared with a
// compact-by-copy slice, a chunk ring never copies queued items to
// reclaim space, steady-state operation recycles one spare chunk instead
// of reallocating, and memory returns to the allocator as the queue
// drains instead of pinning the high-water mark.
const fifoChunkSize = 64

type fifoChunk[T any] struct {
	buf  [fifoChunkSize]T
	next *fifoChunk[T]
}

type fifo[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	// head is the chunk being popped from (read cursor hi), tail the
	// chunk being pushed to (write cursor ti). head == tail when the
	// queue fits in one chunk.
	head, tail *fifoChunk[T]
	hi, ti     int
	size       int
	closed     bool
	// waiting counts poppers blocked in popBatch, so a popper that
	// finds a backlog leaves their share of it.
	waiting int
	// spare recycles the most recently drained chunk so a steady
	// producer/consumer pair allocates nothing.
	spare *fifoChunk[T]
}

func newFIFO[T any]() *fifo[T] {
	q := &fifo[T]{}
	c := &fifoChunk[T]{}
	q.head, q.tail = c, c
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an item; pushing to a closed queue is a no-op.
func (q *fifo[T]) push(v T) {
	q.mu.Lock()
	if !q.closed {
		if q.ti == fifoChunkSize {
			c := q.spare
			if c != nil {
				q.spare = nil
			} else {
				c = &fifoChunk[T]{}
			}
			q.tail.next = c
			q.tail = c
			q.ti = 0
		}
		q.tail.buf[q.ti] = v
		q.ti++
		q.size++
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// offer appends an item unless the queue is closed, reporting whether it
// was accepted — the admission-side primitive external submitters use to
// distinguish "queued" from "engine already draining". Kept separate
// from push so the engines' per-flow push stays a single call.
func (q *fifo[T]) offer(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.ti == fifoChunkSize {
		c := q.spare
		if c != nil {
			q.spare = nil
		} else {
			c = &fifoChunk[T]{}
		}
		q.tail.next = c
		q.tail = c
		q.ti = 0
	}
	q.tail.buf[q.ti] = v
	q.ti++
	q.size++
	q.cond.Signal()
	q.mu.Unlock()
	return true
}

// popOneLocked removes and returns the head item; the caller holds q.mu
// and guarantees size > 0.
func (q *fifo[T]) popOneLocked() T {
	if q.hi == fifoChunkSize {
		old := q.head
		q.head = old.next
		old.next = nil
		q.spare = old // keep one drained chunk for reuse; extras are GC'd
		q.hi = 0
	}
	v := q.head.buf[q.hi]
	var zero T
	q.head.buf[q.hi] = zero // release for GC
	q.hi++
	q.size--
	return v
}

// pop blocks until an item is available or the queue is closed and
// drained; ok is false in the latter case.
func (q *fifo[T]) pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return v, false
	}
	return q.popOneLocked(), true
}

// popBatch fills buf with up to len(buf) items in FIFO order, blocking
// until at least one is available. It returns n == 0, ok == false only
// when the queue is closed and drained. Batch popping amortizes the
// queue's mutex over several items for pool workers draining a backlog.
// While other poppers are blocked here a popper takes only its fair
// share (size / (waiting+1), rounded up), so idle workers are not
// starved by one worker grabbing everything: a pool worker runs its
// batch serially, and a flow that blocks (an idle keep-alive read)
// would strand the rest of its batch while workers sat idle.
func (q *fifo[T]) popBatch(buf []T) (n int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.waiting++
		q.cond.Wait()
		q.waiting--
	}
	if q.size == 0 {
		return 0, false
	}
	if q.waiting > 0 {
		if share := (q.size + q.waiting) / (q.waiting + 1); share < len(buf) {
			buf = buf[:share]
		}
	}
	for n < len(buf) && q.size > 0 {
		buf[n] = q.popOneLocked()
		n++
	}
	return n, true
}

// tryPopBatch is the non-blocking variant of popBatch: it fills buf with
// up to len(buf) items in FIFO order and returns immediately, with n == 0
// when the queue is empty. The work-stealing dispatchers use it to drain
// the overflow/injection queue in one mutex round trip before parking.
func (q *fifo[T]) tryPopBatch(buf []T) (n int) {
	q.mu.Lock()
	for n < len(buf) && q.size > 0 {
		buf[n] = q.popOneLocked()
		n++
	}
	q.mu.Unlock()
	return n
}

// tryPop is the non-blocking variant.
func (q *fifo[T]) tryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return v, false
	}
	return q.popOneLocked(), true
}

// idle reports whether the queue is open and empty: an offer now would
// be accepted with nothing queued ahead of it.
func (q *fifo[T]) idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size == 0 && !q.closed
}

// len reports the current queue length.
func (q *fifo[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// close wakes all waiters; pending items remain poppable.
func (q *fifo[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
