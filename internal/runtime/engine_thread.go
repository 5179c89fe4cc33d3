package runtime

import (
	"context"
	"sync"
	"sync/atomic"
)

// threadEngine implements the one-to-one thread server (§3.2.1): every
// data flow gets its own goroutine, created on demand and destroyed when
// the flow completes. The paper measures this engine's per-flow creation
// cost as its weakness (Figure 3); it is the simplest possible runtime.
type threadEngine struct {
	s   *Server
	ctx context.Context

	// flows tracks in-flight flow goroutines. Sources Add before they
	// return, so those Adds are ordered before the monitor's Wait;
	// Submit's Adds are ordered by admitMu against the monitor setting
	// draining. A successor carried on a flow's goroutine needs no Add:
	// that goroutine is still counted.
	flows sync.WaitGroup

	admitMu  sync.Mutex
	draining atomic.Bool

	done chan struct{}
}

func newThreadEngine(s *Server) Engine {
	return &threadEngine{s: s, done: make(chan struct{})}
}

func (e *threadEngine) Start(ctx context.Context) error {
	e.ctx = ctx
	e.s.startSources(ctx, e, func() {
		e.admitMu.Lock()
		e.draining.Store(true)
		e.admitMu.Unlock()
		e.flows.Wait()
		close(e.done)
	})
	return nil
}

// carrierPool recycles the per-goroutine next-flow slots: a goroutine
// lives for one conversation, and a fresh slot per spawn would be an
// allocation per flow.
var carrierPool = sync.Pool{New: func() any { return new(carrier) }}

// runOne is hoisted so spawning a flow copies plain arguments instead of
// allocating a fresh closure per request. The goroutine then runs every
// successor its flows hand over (SourceHandle.Continue).
func (e *threadEngine) runOne(fl *Flow, tbl *graphTable, rec Record) {
	defer e.flows.Done()
	car := carrierPool.Get().(*carrier)
	fl.car = car
	e.s.runCarried(e.ctx, car, fl, tbl, rec)
	carrierPool.Put(car)
}

// carry runs a flow's successor on the flow's own goroutine, refusing
// exactly when Submit would.
func (e *threadEngine) carry(fl *Flow, st *sourceState, rec Record) bool {
	return e.ctx.Err() == nil && !e.draining.Load() && fl.car.hold(st, rec)
}

// admit runs a source record's flow on a goroutine of its own.
func (e *threadEngine) admit(poll *Flow, st *sourceState, rec Record) {
	fl := e.s.newFlow(e.ctx, st.sessionOf(rec))
	fl.adoptRecord(poll)
	e.flows.Add(1)
	go e.runOne(fl, st.tbl, rec)
}

func (e *threadEngine) Submit(fl *Flow, rec Record) error {
	// Admission ends at cancellation; the draining flag below flips only
	// after every source retires, and injections must not win that race.
	if e.ctx.Err() != nil {
		e.s.freeFlow(fl)
		return ErrServerClosed
	}
	e.admitMu.Lock()
	if e.draining.Load() {
		e.admitMu.Unlock()
		e.s.freeFlow(fl)
		return ErrServerClosed
	}
	e.flows.Add(1)
	e.admitMu.Unlock()
	go e.runOne(fl, fl.src.tbl, rec)
	return nil
}

func (e *threadEngine) Drain(ctx context.Context) error {
	return awaitDone(e.done, ctx)
}
