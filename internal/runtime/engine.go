package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Engine is the execution strategy behind a Server: one of the paper's
// three runtime systems (§3.2), or any registered alternative. The
// Server owns program compilation, binding resolution, and the dense
// vertex tables; the engine owns scheduling — how source records, node
// activations, and lock waits map onto goroutines. Every engine runs its
// sources through the same loop (Server.startSources).
//
// The contract:
//
//   - Start launches the engine's sources and workers and returns
//     without blocking. The context governs admission: when it is
//     cancelled, sources stop originating flows, but flows already in
//     flight run to their terminals (graceful drain).
//   - Submit admits one externally-originated flow (Server.Inject). The
//     flow carries its source binding; Submit returns ErrServerClosed
//     once the engine has begun draining. Submit takes ownership of the
//     flow whether or not it returns an error.
//   - Drain blocks until the engine is quiescent — every source loop
//     retired, every in-flight flow at a terminal, every worker exited —
//     or the context expires, returning ctx.Err() in that case. Drain
//     is safe to call from several goroutines and at any time relative
//     to Start's context being cancelled; it does not itself stop
//     admission.
type Engine interface {
	Start(ctx context.Context) error
	Submit(fl *Flow, rec Record) error
	Drain(ctx context.Context) error
}

// sourceAdmitter is the one engine-specific step of the shared source
// loop: what the engine does with a record its source produced. admit
// runs on the source's own goroutine; the flow built for rec takes over
// poll's pooled record (Flow.adoptRecord or takeRecBox).
type sourceAdmitter interface {
	admit(poll *Flow, st *sourceState, rec Record)
}

// startSources runs every source on a goroutine of its own, on every
// engine, plus — with KeepAlive — a stand-in source that holds admission
// open until ctx is done. retired runs once all of them have returned.
func (s *Server) startSources(ctx context.Context, a sourceAdmitter, retired func()) {
	var wg sync.WaitGroup
	for _, st := range s.srcs {
		wg.Add(1)
		go func(st *sourceState) {
			defer wg.Done()
			s.sourceLoop(ctx, st, a)
		}(st)
	}
	if s.cfg.KeepAlive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ctx.Done()
		}()
	}
	go func() {
		wg.Wait()
		retired()
	}()
}

// sourceLoop calls one source until it stops and hands each record to
// the engine. The source blocks until it has a record or fl.Ctx is done
// (SourceFunc's contract), so the loop holds no dispatcher or worker
// while it waits. It retires on ErrStop, on cancellation, or on any
// other error, which counts as a node error: a source error has nowhere
// to flow (§2.4), as an accept-loop failure would end its server.
func (s *Server) sourceLoop(ctx context.Context, st *sourceState, a sourceAdmitter) {
	// Hoisted: the per-record cancellation check is a non-blocking
	// receive, not a ctx.Err() call (an atomic load per admitted record
	// on a cancellable context).
	done := ctx.Done()
	// One poll context serves every call; src lets the source draw from
	// its record pool (NewRecord).
	fl := s.newFlow(ctx, 0)
	fl.src = st
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
			a.admit(fl, st, rec)
		case errors.Is(err, ErrStop),
			errors.Is(err, context.Canceled),
			errors.Is(err, context.DeadlineExceeded):
			return
		default:
			s.stats.NodeErrors.Add(1)
			return
		}
	}
}

// EngineFactory builds an engine bound to a server. The factory is
// invoked once per Server.Start; the engine reads its tuning (pool
// size, dispatcher count, ...) from the server's Config.
type EngineFactory func(s *Server) Engine

// recordSubmitter is the optional admission fast path an engine
// implements when it defers flow construction to its own workers (the
// thread pool builds flows worker-side). Inject prefers it over Submit:
// no throwaway Flow is built and the source's session function runs
// exactly once, at the point the engine actually creates the flow.
type recordSubmitter interface {
	submitRecord(st *sourceState, rec Record) error
}

// ErrServerClosed is returned by Submit and Inject once the server (or
// its engine) has stopped admitting new flows.
var ErrServerClosed = errors.New("flux/runtime: server closed")

// ErrNotStarted is returned by lifecycle methods that require Start to
// have been called first.
var ErrNotStarted = errors.New("flux/runtime: server not started")

// The engine registry. The three paper engines register themselves in
// init, the event-driven one under two kinds (EventDriven and
// WorkStealing differ only in their default dispatcher count);
// additional engines (a NUMA-aware pool, ...) register with
// RegisterEngine and become selectable through WithEngine without any
// change to Server.
var (
	engineMu  sync.RWMutex
	engineReg = map[EngineKind]engineEntry{}
)

type engineEntry struct {
	name    string
	factory EngineFactory
}

// RegisterEngine makes an engine selectable by kind. The name is the
// kind's String form and must be unique, as must the kind itself;
// duplicate registrations panic, mirroring database/sql.Register.
func RegisterEngine(kind EngineKind, name string, factory EngineFactory) {
	if factory == nil {
		panic("flux/runtime: RegisterEngine with nil factory")
	}
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engineReg[kind]; dup {
		panic(fmt.Sprintf("flux/runtime: engine kind %d registered twice", int(kind)))
	}
	for k, e := range engineReg {
		if e.name == name {
			panic(fmt.Sprintf("flux/runtime: engine name %q already taken by kind %d", name, int(k)))
		}
	}
	engineReg[kind] = engineEntry{name: name, factory: factory}
}

// ParseEngineKind resolves a registered engine's name ("thread",
// "threadpool", "event", ...) back to its kind — the inverse of
// EngineKind.String for every registered engine.
func ParseEngineKind(name string) (EngineKind, bool) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	for k, e := range engineReg {
		if e.name == name {
			return k, true
		}
	}
	return 0, false
}

// EngineKinds lists the registered kinds in ascending order.
func EngineKinds() []EngineKind {
	engineMu.RLock()
	kinds := make([]EngineKind, 0, len(engineReg))
	for k := range engineReg {
		kinds = append(kinds, k)
	}
	engineMu.RUnlock()
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

func lookupEngine(kind EngineKind) (engineEntry, bool) {
	engineMu.RLock()
	e, ok := engineReg[kind]
	engineMu.RUnlock()
	return e, ok
}

func init() {
	RegisterEngine(ThreadPerFlow, "thread", newThreadEngine)
	RegisterEngine(ThreadPool, "threadpool", newPoolEngine)
	RegisterEngine(EventDriven, "event", newStealEngine)
	RegisterEngine(WorkStealing, "steal", newStealEngine)
}

// awaitDone is the shared Drain implementation: wait for the engine's
// quiescence signal or the caller's deadline.
func awaitDone(done <-chan struct{}, ctx context.Context) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// A quiescence signal racing the deadline counts as drained.
		select {
		case <-done:
			return nil
		default:
		}
		return ctx.Err()
	}
}
