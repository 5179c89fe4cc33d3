package runtime

import (
	"context"
	"errors"
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

	// flows tracks in-flight flow goroutines. Source loops Add before
	// their own WaitGroup entry resolves, so those Adds are ordered
	// before the monitor's Wait; Submit's Adds are ordered by admitMu
	// against the monitor setting draining. A successor carried on a
	// flow's goroutine needs no Add: that goroutine is still counted.
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
	var sources sync.WaitGroup
	for _, st := range e.s.srcs {
		sources.Add(1)
		go e.sourceLoop(&sources, st)
	}
	if e.s.cfg.KeepAlive {
		// A virtual source that only retires on cancellation keeps the
		// engine admitting Inject flows after real sources exhaust.
		sources.Add(1)
		go func() {
			defer sources.Done()
			<-ctx.Done()
		}()
	}
	go func() {
		sources.Wait()
		e.admitMu.Lock()
		e.draining.Store(true)
		e.admitMu.Unlock()
		e.flows.Wait()
		close(e.done)
	}()
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

func (e *threadEngine) sourceLoop(sources *sync.WaitGroup, st *sourceState) {
	defer sources.Done()
	s, ctx := e.s, e.ctx
	// Hoisted: the per-record cancellation check is a non-blocking
	// receive, not a ctx.Err() call (an atomic load per admitted record
	// on a cancellable context).
	done := ctx.Done()
	// One poll context serves every iteration of this source loop; only
	// accepted records get a flow of their own.
	fl := s.newFlow(ctx, 0)
	fl.src = st // lets the source draw from its record pool (NewRecord)
	defer s.freeFlow(fl)
	for {
		select {
		case <-done:
			return
		default:
		}
		rec, err := st.fn(fl)
		switch {
		case err == nil:
			s.stats.Started.Add(1)
			flow := s.newFlow(ctx, st.sessionOf(rec))
			flow.adoptRecord(fl)
			e.flows.Add(1)
			go e.runOne(flow, st.tbl, rec)
		case errors.Is(err, ErrNoData):
			fl.releaseRecord()
			continue
		case errors.Is(err, ErrStop):
			return
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return
		default:
			// A source error terminates that source, as an accept-loop
			// failure would (§2.4 covers node errors; source errors have
			// nowhere to flow).
			s.stats.NodeErrors.Add(1)
			return
		}
	}
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
