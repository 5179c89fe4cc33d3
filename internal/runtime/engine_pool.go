package runtime

import (
	"context"
	"sync"
	"time"
)

// pooledFlow is one queued admission: a record waiting for a worker.
// Kept to three words + record so the FIFO's chunk copies stay cheap;
// injected flows are recycled at Submit and rebuilt by the worker. box
// carries the record's pool slot (when the source drew it from the
// per-source record pool) to the worker-built flow, which frees it at
// the flow's terminal.
type pooledFlow struct {
	st  *sourceState
	rec Record
	box *pooledRec
}

// poolBatch is how many queued admissions a worker claims per queue
// round trip. Batching amortizes the queue mutex under backlog; under
// light load popBatch returns what is available (usually one), so idle
// workers still pick up new arrivals immediately.
const poolBatch = 8

// poolEngine implements the thread-pool runtime (§3.2.1): a fixed number
// of workers service flows; a flow created while every worker is busy
// queues and is handled in first-in first-out order.
//
// Graceful drain is inherent to the structure: cancelling the start
// context stops the sources, the admission queue closes once they
// retire, and workers drain the remaining backlog before exiting.
type poolEngine struct {
	s     *Server
	ctx   context.Context
	queue *fifo[pooledFlow]
	done  chan struct{}
}

func newPoolEngine(s *Server) Engine {
	return &poolEngine{s: s, queue: newFIFO[pooledFlow](), done: make(chan struct{})}
}

func (e *poolEngine) Start(ctx context.Context) error {
	e.ctx = ctx
	s := e.s
	var workers sync.WaitGroup
	for i := 0; i < s.cfg.PoolSize; i++ {
		workers.Add(1)
		go e.worker(&workers)
	}

	if s.obs != nil {
		go e.sampleQueues()
	}
	s.startSources(ctx, e, func() {
		e.queue.close()
		workers.Wait()
		close(e.done)
	})
	return nil
}

func (e *poolEngine) worker(workers *sync.WaitGroup) {
	defer workers.Done()
	// Hoisted: the steady-state loop must not chase engine fields.
	s, queue, ctx := e.s, e.queue, e.ctx
	buf := make([]pooledFlow, poolBatch)
	car := new(carrier)
	for {
		n, ok := queue.popBatch(buf)
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			pf := buf[i]
			buf[i] = pooledFlow{} // release the record for GC
			fl := s.newFlow(ctx, pf.st.sessionOf(pf.rec))
			fl.recBox = pf.box
			// Only the batch's last flow may hand this worker a successor:
			// one run ahead of unrun batch items would strand them.
			if i == n-1 {
				fl.car = car
			}
			s.runCarried(ctx, car, fl, pf.st.tbl, pf.rec)
		}
	}
}

// carry runs a flow's successor on its own worker unless admissions are
// queued, which run first: a keep-alive conversation cannot starve fresh
// ones.
func (e *poolEngine) carry(fl *Flow, st *sourceState, rec Record) bool {
	return e.ctx.Err() == nil && e.queue.idle() && fl.car.hold(st, rec)
}

// admit queues a source record for the workers, which build its flow.
func (e *poolEngine) admit(poll *Flow, st *sourceState, rec Record) {
	e.queue.push(pooledFlow{st: st, rec: rec, box: poll.takeRecBox()})
}

// sampleQueues feeds the observer plane the admission backlog depth —
// the saturation signal of a fixed pool (§3.2.1's FIFO admission).
func (e *poolEngine) sampleQueues() {
	t := time.NewTicker(e.s.cfg.QueueSample)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			e.s.obs.QueueDepth(ThreadPool, "admission", e.queue.len())
		}
	}
}

// submitRecord admits an injected record through the same FIFO as
// source admissions; the claiming worker builds the flow (and runs the
// session function) exactly as it does for source records. Admission
// ends at cancellation — the queue also closes shortly after, but the
// explicit check removes the window where injections race the source
// loops' retirement.
func (e *poolEngine) submitRecord(st *sourceState, rec Record) error {
	if e.ctx.Err() != nil {
		return ErrServerClosed
	}
	if !e.queue.offer(pooledFlow{st: st, rec: rec}) {
		return ErrServerClosed
	}
	return nil
}

// Submit satisfies the Engine interface for callers holding a prebuilt
// flow; the pool recycles it and admits the bare record (Inject uses
// submitRecord directly and never builds one).
func (e *poolEngine) Submit(fl *Flow, rec Record) error {
	st := fl.src
	e.s.freeFlow(fl)
	return e.submitRecord(st, rec)
}

func (e *poolEngine) Drain(ctx context.Context) error {
	return awaitDone(e.done, ctx)
}
