package runtime

import (
	"context"
	"sync"
	"time"
)

// Flow is the per-request execution context: one flow exists for each
// record a source produces, for the duration of its trip through the
// program graph (Figure 1's "dynamic view": one flow per client request).
type Flow struct {
	// Ctx is the server's run context; node functions performing long
	// blocking operations should honor its cancellation.
	Ctx context.Context

	// Session is the session identifier computed by the source's
	// session-id function, or 0 (§2.5.1).
	Session uint64

	// path accumulates the Ball-Larus path register: one addition per
	// traversed edge (§5.2).
	path uint64

	// start is the flow's start time for path-time attribution.
	start time.Time

	// held is the flow's lock stack, outermost first.
	held []heldToken

	// src is set on externally-injected flows (Server.Inject) so the
	// engine's Submit knows which graph to run, and on the engines' poll
	// contexts so NewRecord can reach the source's record pool.
	src *sourceState

	// lw is the flow's embedded lock-waiter node: a flow blocks on at
	// most one constraint at a time, so parking on a contended lock
	// reuses this node instead of allocating a continuation closure.
	lw lockWaiterNode

	// disp is the last work-stealing dispatcher that ran the flow; lock
	// grants triggered by this flow's releases — on that dispatcher or
	// later on an offload worker — resume waiters onto its local deque.
	// Nil on every other engine.
	disp *stealDispatcher

	// car is the next-flow slot of the goroutine running the flow when
	// that goroutine may block (a pool worker, a thread-per-flow
	// goroutine, a work-stealing offload worker); SourceHandle.Continue
	// hands the flow's successor to it. Nil while the flow runs on a
	// dispatcher.
	car *carrier

	// recBox holds the flow's pooled source record, if the source drew
	// one with NewRecord; it returns to the source's pool when the flow
	// is retired.
	recBox *pooledRec

	srv *Server
}

// pooledRec is one recyclable source record and the pool it returns to.
type pooledRec struct {
	pool *sync.Pool
	buf  Record
}

// NewRecord returns a record of length n drawn from the flow's source
// record pool, closing the last per-request allocation: the runtime
// reclaims the record when the flow reaches a terminal. Sources call it
// once per produced record in place of make(Record, n); the values
// stored in it are the caller's business, but neither the record nor
// its backing array may be retained past the flow's terminal — a node
// that stashes its input record away must copy it (Record.Clone).
// Outside a source poll (or if called more than once per poll) it
// degrades to a plain allocation.
func (fl *Flow) NewRecord(n int) Record {
	if fl.src == nil || fl.recBox != nil {
		return make(Record, n)
	}
	b := fl.src.recPool.Get().(*pooledRec)
	if cap(b.buf) < n {
		b.buf = make(Record, n)
	}
	b.buf = b.buf[:n]
	fl.recBox = b
	return b.buf
}

// adoptRecord moves the poll context's pooled record to the flow that
// will run it, so the record is reclaimed exactly once — at that flow's
// terminal — and the poll context is free to draw a fresh record on its
// next iteration.
func (fl *Flow) adoptRecord(from *Flow) {
	fl.recBox, from.recBox = from.recBox, nil
}

// takeRecBox detaches the poll context's pooled record for engines that
// queue admissions before building the flow (the thread pool's FIFO).
func (fl *Flow) takeRecBox() *pooledRec {
	b := fl.recBox
	fl.recBox = nil
	return b
}

// releaseRecord reclaims an attached pooled record: the flow terminal's
// free for retired flows, and the poll context's when its source retires
// after drawing a record it did not return.
func (fl *Flow) releaseRecord() {
	if b := fl.recBox; b != nil {
		fl.recBox = nil
		clear(b.buf)
		b.pool.Put(b)
	}
}

// carrier is the next-flow slot of one goroutine that may block. It is
// allocated once per goroutine (thread-per-flow goroutines draw theirs
// from a pool), so handing a successor over costs two stores and no
// allocation.
type carrier struct {
	st  *sourceState
	rec Record
}

// hold parks rec as the goroutine's next flow, reporting false when a
// successor is already parked.
func (c *carrier) hold(st *sourceState, rec Record) bool {
	if c.st != nil {
		return false
	}
	c.st, c.rec = st, rec
	return true
}

// take removes the parked successor; st is nil when there is none.
func (c *carrier) take() (st *sourceState, rec Record) {
	st, rec = c.st, c.rec
	c.st, c.rec = nil, nil
	return st, rec
}

// PathID returns the current Ball-Larus path register value.
func (fl *Flow) PathID() uint64 { return fl.path }

func (fl *Flow) releaseTop() {
	t := fl.held[len(fl.held)-1]
	fl.held = fl.held[:len(fl.held)-1]
	t.lock.release(fl)
}
