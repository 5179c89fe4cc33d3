package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// The event-driven runtime (§3.2.2). Flows advance on a dispatcher that
// must never block, in run-to-block segments: consecutive non-blocking
// vertices execute inline in one dispatch, and a flow yields to the
// queue only when it must —
//
//   - source nodes are repeatedly re-queued to originate new flows; they
//     poll with a deadline (the select-with-timeout pattern the paper's
//     web server uses), so an idle source holds the dispatcher for at
//     most Config.SourceTimeout — which reproduces the low-concurrency
//     latency hiccup of Figure 3;
//   - nodes marked blocking are offloaded to an asynchronous-I/O worker
//     pool, the Go analogue of the paper's LD_PRELOAD interception: the
//     node's state (its continuation vertex and record) is captured, the
//     dispatcher moves to the next event, and completion re-queues the
//     flow;
//   - lock acquisition never blocks the dispatcher: a contended
//     constraint parks the flow on the lock's FIFO wait queue and the
//     grant re-queues its continuation, so later acquirers cannot starve
//     earlier ones;
//   - async completions signal Flow.Wake, so a source poll in progress
//     yields immediately instead of holding the dispatcher for its full
//     timeout (the paper's single select sees all activity at once).
//
// Run-to-block dispatch removes one queue round trip per vertex: an
// N-node non-blocking flow costs one queue trip total, not N.

type eventKind int

const (
	evSource eventKind = iota // poll a source for the next record
	evStep                    // resume a flow at a vertex
	evResult                  // apply the result of an offloaded node (event engine)
	evNudge                   // wake a dispatcher to re-check termination
)

type event struct {
	kind eventKind
	st   *sourceState

	// fl doubles as the flow being advanced (evStep/evResult) and the
	// reusable poll context of an evSource event, so idle polling does
	// not allocate a fresh Flow per ErrNoData round.
	fl  *Flow
	tbl *graphTable
	v   *core.FlatNode
	rec Record

	// acquired tracks progress through an acquire vertex's constraint
	// set across parked-grant resumptions.
	acquired int

	// out and err carry an offloaded node's results back to the event
	// engine's dispatcher (the steal engine's workers carry flows on
	// instead).
	out Record
	err error
}

type eventEngine struct {
	s        *Server
	ctx      context.Context
	queue    *fifo[event]
	asyncq   *fifo[event]
	inflight atomic.Int64
	sources  atomic.Int64
	// wake interrupts a source poll when other work arrives, so async
	// completions never wait out a source timeout (the paper's single
	// select sees all activity at once).
	wake chan struct{}
	done chan struct{}
	// ctxDone is ctx.Done(), hoisted so the per-poll cancellation check
	// is a non-blocking receive rather than a cancelCtx.Err() call.
	ctxDone <-chan struct{}
}

func newEventEngine(s *Server) Engine {
	return &eventEngine{
		s:      s,
		queue:  newFIFO[event](),
		asyncq: newFIFO[event](),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// pushEvent enqueues an event and nudges any polling source.
func (e *eventEngine) pushEvent(ev event) {
	e.queue.push(ev)
	e.signalWake()
}

func (e *eventEngine) signalWake() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *eventEngine) drainWake() {
	select {
	case <-e.wake:
	default:
	}
}

func (e *eventEngine) Start(ctx context.Context) error {
	e.ctx = ctx
	e.ctxDone = ctx.Done()
	s := e.s

	var asyncWG sync.WaitGroup
	for i := 0; i < s.cfg.AsyncWorkers; i++ {
		asyncWG.Add(1)
		go func() {
			defer asyncWG.Done()
			e.asyncWorker()
		}()
	}

	for _, st := range s.srcs {
		e.sources.Add(1)
		e.queue.push(event{kind: evSource, st: st})
	}
	if s.cfg.KeepAlive {
		// A virtual source holds the engine open for Inject admissions;
		// cancellation retires it and nudges a dispatcher so the
		// termination check runs even on an idle queue.
		e.sources.Add(1)
		go func() {
			<-ctx.Done()
			e.sources.Add(-1)
			e.pushEvent(event{kind: evNudge})
		}()
	}
	if s.obs != nil {
		go e.sampleQueues()
	}

	var dispWG sync.WaitGroup
	for i := 0; i < s.cfg.Dispatchers; i++ {
		dispWG.Add(1)
		go func() {
			defer dispWG.Done()
			e.dispatch()
		}()
	}
	go func() {
		dispWG.Wait()
		e.asyncq.close()
		asyncWG.Wait()
		close(e.done)
	}()
	return nil
}

// Submit admits an externally-originated flow as an evStep event at its
// graph entry, interleaving with source-originated flows at flow
// granularity. Admission ends at cancellation, not at quiescence:
// without the context check, a steady stream of successful injections
// could hold inflight above zero forever and livelock the drain.
func (e *eventEngine) Submit(fl *Flow, rec Record) error {
	select {
	case <-e.ctxDone:
		e.s.freeFlow(fl)
		return ErrServerClosed
	default:
	}
	fl.SourceTimeout = e.s.cfg.SourceTimeout
	e.inflight.Add(1)
	tbl := fl.src.tbl
	if !e.queue.offer(event{kind: evStep, fl: fl, tbl: tbl, v: tbl.g.Entry, rec: rec}) {
		e.inflight.Add(-1)
		e.s.freeFlow(fl)
		return ErrServerClosed
	}
	e.signalWake()
	return nil
}

func (e *eventEngine) Drain(ctx context.Context) error {
	return awaitDone(e.done, ctx)
}

// sampleQueues feeds the observer plane the dispatcher and async-offload
// queue depths — the event server's overload signals.
func (e *eventEngine) sampleQueues() {
	t := time.NewTicker(e.s.cfg.QueueSample)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			obs := e.s.obs
			obs.QueueDepth(EventDriven, "events", e.queue.len())
			obs.QueueDepth(EventDriven, "async", e.asyncq.len())
		}
	}
}

// eventBatch is how many queued events a dispatcher claims per queue
// round trip. Under backlog the queue mutex amortizes over the batch;
// with a short queue popBatch returns what is available (usually one),
// so sibling dispatchers are not starved by one grabbing everything.
const eventBatch = 8

// dispatch is the event loop: it drains a batch of events per mutex
// round trip, handles each without blocking (beyond a source's bounded
// poll), and checks for termination after every event.
//
// The local buffer is termination-check-safe: maybeFinish closes the
// queue only when no source is live and no flow is in flight, and every
// buffered event except a nudge keeps one of those counters nonzero
// (evSource holds sources > 0 until retired, evStep/evResult hold
// inflight > 0), so events parked in a dispatcher's buffer can never be
// stranded by the queue closing under them.
func (e *eventEngine) dispatch() {
	var buf [eventBatch]event
	for {
		n, ok := e.queue.popBatch(buf[:])
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			ev := buf[i]
			buf[i] = event{} // release the record/flow for GC
			switch ev.kind {
			case evSource:
				e.handleSource(ev, i+1 < n)
			case evStep:
				e.run(ev.fl, ev.tbl, ev.v, ev.rec, ev.acquired)
			case evResult:
				r := e.s.afterExec(ev.fl, ev.v, ev.rec, ev.out, ev.err)
				e.run(ev.fl, ev.tbl, r.next, r.rec, 0)
			case evNudge:
				// No work; exists to force the termination check below.
			}
			e.maybeFinish()
		}
	}
}

// maybeFinish closes the queue once no source is active, no flow is in
// flight, and no event is pending.
func (e *eventEngine) maybeFinish() {
	if e.sources.Load() == 0 && e.inflight.Load() == 0 && e.queue.len() == 0 {
		e.queue.close()
	}
}

// retireSource ends a source's polling loop, releasing its poll context.
func (e *eventEngine) retireSource(ev event) {
	if ev.fl != nil {
		e.s.freeFlow(ev.fl)
	}
	e.sources.Add(-1)
}

// handleSource polls a source once and re-queues it. The evSource event
// owns a reusable poll Flow, so an idle source cycling through ErrNoData
// allocates nothing. morePending reports events still buffered by this
// dispatcher's batch, which count as ready work for poll-shortening.
func (e *eventEngine) handleSource(ev event, morePending bool) {
	select {
	case <-e.ctxDone:
		e.retireSource(ev)
		return
	default:
	}
	if ev.fl == nil {
		ev.fl = e.s.newFlow(e.ctx, 0)
		ev.fl.SourceTimeout = e.s.cfg.SourceTimeout
		ev.fl.Wake = e.wake
		ev.fl.src = ev.st
	}
	// A poll must return promptly when the engine already has work;
	// pre-arm the wake signal so a well-behaved source's select fires
	// immediately.
	e.drainWake()
	if morePending || e.queue.len() > 0 {
		e.signalWake()
	}
	t0 := time.Now()
	rec, err := ev.st.fn(ev.fl)
	switch {
	case err == nil:
		e.s.stats.Started.Add(1)
		flow := e.s.newFlow(e.ctx, ev.st.sessionOf(rec))
		flow.SourceTimeout = e.s.cfg.SourceTimeout
		flow.adoptRecord(ev.fl)
		e.inflight.Add(1)
		// Re-queue the source first, then run the new flow inline until
		// it blocks: the next dispatch iteration polls the source again,
		// so flow execution and admission interleave at flow granularity.
		e.queue.push(ev)
		e.run(flow, ev.st.tbl, ev.st.tbl.g.Entry, rec, 0)
	case errors.Is(err, ErrNoData):
		ev.fl.releaseRecord() // a drawn-but-unused record goes back now
		// Guard against sources that return early instead of waiting
		// out their deadline: an idle queue would otherwise hot-spin.
		// The guard sleep is interrupted by new work arriving.
		if !morePending && e.queue.len() == 0 {
			if rest := e.s.cfg.SourceTimeout - time.Since(t0); rest > 0 {
				e.sleepWakeable(rest)
			}
		}
		e.queue.push(ev)
	case errors.Is(err, ErrStop),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		e.retireSource(ev)
	default:
		e.s.stats.NodeErrors.Add(1)
		e.retireSource(ev)
	}
}

// sleepWakeable waits without outliving the run context, returning early
// when new work arrives.
func (e *eventEngine) sleepWakeable(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-e.wake:
	case <-e.ctx.Done():
	}
}

// run executes consecutive vertices of one flow inline — run-to-block —
// returning only when the flow offloads a blocking node, parks on a
// contended constraint, or terminates. acquired carries a parked acquire
// vertex's progress through its constraint set.
func (e *eventEngine) run(fl *Flow, tbl *graphTable, v *core.FlatNode, rec Record, acquired int) {
	s := e.s
	for {
		switch v.Kind {
		case core.FlatExec:
			info := &tbl.info[v.ID]
			if info.blocking {
				// Capture the node's state and move on; an async worker
				// will run it and queue the continuation (§3.2.2).
				e.asyncq.push(event{kind: evStep, fl: fl, tbl: tbl, v: v, rec: rec})
				return
			}
			out, err := s.callNode(fl, tbl, v, rec)
			r := s.afterExec(fl, v, rec, out, err)
			v, rec = r.next, r.rec

		case core.FlatBranch:
			r := s.branchVertex(fl, tbl, v, rec)
			if r.terminal {
				e.inflight.Add(-1)
				s.freeFlow(fl)
				return
			}
			v, rec = r.next, r.rec

		case core.FlatAcquire:
			info := &tbl.info[v.ID]
			for acquired < len(info.cons) {
				rc := info.cons[acquired]
				// Uncontended grants take the closure-free fast path;
				// otherwise park the flow on the lock's FIFO queue via
				// its embedded waiter node — the grant re-queues the
				// continuation, and neither side allocates. Arrival-
				// order grants keep timer flows from being starved by a
				// stream of later acquirers.
				if s.locks.tryAcquireResolved(fl, rc) {
					acquired++
					continue
				}
				fl.lw.tbl, fl.lw.v, fl.lw.rec, fl.lw.acquired = tbl, v, rec, acquired+1
				if !s.locks.parkWaiter(fl, rc, e) {
					return
				}
				acquired++
			}
			acquired = 0
			fl.path += v.Out[0].Inc
			v = v.Out[0].To

		case core.FlatRelease:
			s.locks.releaseN(fl, len(v.Cons))
			fl.path += v.Out[0].Inc
			v = v.Out[0].To

		case core.FlatExit, core.FlatError:
			s.finishFlow(fl, tbl.g, v)
			e.inflight.Add(-1)
			s.freeFlow(fl)
			return
		}
	}
}

// resumeGranted re-queues a lock-granted flow's continuation: the
// engine's side of the allocation-free contended acquire (parkWaiter).
func (e *eventEngine) resumeGranted(n *lockWaiterNode, by *Flow) {
	ev := event{kind: evStep, fl: n.fl, tbl: n.tbl, v: n.v, rec: n.rec, acquired: n.acquired}
	n.rec = nil // the event owns the record now; drop the node's pin
	e.pushEvent(ev)
}

// asyncWorker runs offloaded blocking nodes and queues their results.
func (e *eventEngine) asyncWorker() {
	for {
		ev, ok := e.asyncq.pop()
		if !ok {
			return
		}
		out, err := e.s.callNode(ev.fl, ev.tbl, ev.v, ev.rec)
		ev.kind = evResult
		ev.out, ev.err = out, err
		e.pushEvent(ev)
	}
}
