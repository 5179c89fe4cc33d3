package runtime

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/core"
)

// EngineKind selects one of the three runtime systems of §3.2, or any
// engine registered through RegisterEngine.
type EngineKind int

const (
	// ThreadPerFlow starts a goroutine for every data flow (the paper's
	// one-to-one thread server).
	ThreadPerFlow EngineKind = iota
	// ThreadPool services flows with a fixed pool of goroutines; flows
	// arriving when all workers are busy queue in FIFO order.
	ThreadPool
	// EventDriven runs node activations as events on a dispatcher that
	// never blocks (§3.2.2): blocking nodes are offloaded to an async-I/O
	// pool, whose worker carries the flow on from there. Sources block on
	// goroutines of their own, as on every engine, and a source's record
	// runs its first run-to-block segment on that goroutine, as an
	// offload worker carries a flow past a blocking node; only flows
	// that yield reach a dispatcher. It defaults to one dispatcher, the
	// paper's single-threaded event server.
	EventDriven
	// WorkStealing is the same engine with one dispatcher per core
	// (default GOMAXPROCS), each owning a local run deque — LIFO for the
	// owner, stolen FIFO by idle peers — so throughput scales with
	// dispatcher count instead of collapsing on one queue's mutex.
	// Config.withDefaults' dispatcher count is the only difference
	// between the two kinds.
	WorkStealing
)

// String returns the engine's registered name; ParseEngineKind inverts
// it. Unregistered kinds format as "engine(N)".
func (k EngineKind) String() string {
	if e, ok := lookupEngine(k); ok {
		return e.name
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// Config tunes a Server. The zero value is usable: thread-per-flow with
// no observer. The functional options (WithEngine, WithPoolSize, ...)
// are the public way to populate one.
type Config struct {
	Kind EngineKind

	// PoolSize is the worker count for ThreadPool (default
	// 4×GOMAXPROCS).
	PoolSize int

	// Dispatchers is the event-loop count of the event-driven engine:
	// default 1 for EventDriven, the paper's single-threaded event
	// server, and GOMAXPROCS for WorkStealing, one per core.
	Dispatchers int

	// AsyncWorkers sizes the event-driven engine's blocking-call offload
	// pool (default 16).
	AsyncWorkers int

	// Observer, when non-nil, receives flow terminals (including drops
	// and errors), node completions, and queue-depth samples.
	Observer Observer

	// KeepAlive keeps the server admitting Inject flows after all
	// sources report ErrStop; the server then runs until Shutdown.
	KeepAlive bool

	// QueueSample is the engines' queue-depth sampling period for the
	// observer (default 100ms; sampling runs only with an observer).
	QueueSample time.Duration
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Dispatchers <= 0 {
		if c.Kind == WorkStealing {
			c.Dispatchers = runtime.GOMAXPROCS(0)
		} else {
			c.Dispatchers = 1
		}
	}
	if c.AsyncWorkers <= 0 {
		c.AsyncWorkers = 16
	}
	if c.QueueSample <= 0 {
		c.QueueSample = 100 * time.Millisecond
	}
	return c
}

// Stats counts flow outcomes; all fields are updated atomically while the
// server runs and may be read at any time. Stats is the always-on core
// of the observer plane: the server maintains these counters itself at
// zero allocation, and anything richer attaches as an Observer.
type Stats struct {
	Started     atomic.Uint64 // flows initiated by sources or Inject
	Completed   atomic.Uint64 // flows reaching the exit terminal
	Errored     atomic.Uint64 // flows reaching the error terminal
	Dropped     atomic.Uint64 // flows with no matching dispatch case
	NodeErrors  atomic.Uint64 // node invocations returning an error
	ArityErrors atomic.Uint64 // node outputs with the wrong arity
}

// Snapshot returns a plain-struct copy for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Started:     s.Started.Load(),
		Completed:   s.Completed.Load(),
		Errored:     s.Errored.Load(),
		Dropped:     s.Dropped.Load(),
		NodeErrors:  s.NodeErrors.Load(),
		ArityErrors: s.ArityErrors.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Started, Completed, Errored, Dropped, NodeErrors, ArityErrors uint64
}

// compiledCase is a dispatch case with resolved predicate functions.
type compiledCase struct {
	checks []predCheck
	edge   *core.FlatEdge
}

type predCheck struct {
	arg int
	fn  PredicateFunc
}

// vertexInfo is the pre-resolved execution state for one flat-graph
// vertex, stored in a per-graph slice indexed by core.FlatNode.ID. The
// hot path indexes this table instead of chasing map buckets keyed by
// vertex pointer.
type vertexInfo struct {
	// exec vertices
	fn       NodeFunc
	blocking bool
	outArity int
	isSink   bool
	// branch vertices
	cases []compiledCase
	// acquire/release vertices: constraints with global locks resolved
	// to their *rwReentrant once, at server construction.
	cons []resolvedCon
}

// graphTable pairs a flat graph with its dense vertex-info table.
type graphTable struct {
	g    *core.FlatGraph
	info []vertexInfo
}

// Server executes one compiled Flux program on a chosen engine.
//
// A server is inert after construction. Start launches its engine and
// returns; Wait blocks until the run ends (sources exhausted, context
// cancelled, or Shutdown); Shutdown stops admission and drains in-flight
// flows under a deadline; Inject admits a record from outside the
// program's own sources. Run is Start followed by Wait.
type Server struct {
	prog  *core.Program
	b     *Bindings
	cfg   Config
	locks *LockManager
	stats Stats

	// obs is the configured Observer, copied once at construction (nil
	// when none is configured) so the hot path pays a single nil check.
	obs Observer

	// srcs lists the per-source execution state in declaration order.
	srcs []*sourceState

	// srcByName indexes srcs for Inject.
	srcByName map[string]*sourceState

	// tables holds one dense vertex table per flat graph.
	tables map[*core.FlatGraph]*graphTable

	// live is the running engine and admission context, published
	// atomically at Start so the Inject hot path reads both with one
	// lock-free load instead of taking the lifecycle mutex.
	live atomic.Pointer[liveEngine]

	// Lifecycle state, guarded by mu.
	mu     sync.Mutex
	engine Engine
	runCtx context.Context
	cancel context.CancelFunc
	done   chan struct{}
	runErr error
}

// liveEngine snapshots what external admission needs from a started
// server: the engine, its record-submission fast path (pre-asserted, so
// the per-event path performs no interface type switch), and the run
// context injected flows inherit.
type liveEngine struct {
	eng Engine
	rs  recordSubmitter // non-nil when eng defers flow construction
	fc  flowCarrier     // non-nil when eng runs successors inline (Continue)
	ctx context.Context
}

type sourceState struct {
	tbl     *graphTable
	name    string
	fn      SourceFunc
	session SessionFunc // nil when the source has no session function

	// recPool recycles the source's records across flows (Flow.NewRecord
	// draws from it; the terminal free returns to it), so a steady-state
	// source produces records without allocating.
	recPool sync.Pool
}

// NewServer validates bindings against the program and prepares the
// dispatch tables. The returned server is inert until Start or Run.
func NewServer(prog *core.Program, b *Bindings, cfg Config) (*Server, error) {
	if err := b.Validate(prog); err != nil {
		return nil, err
	}
	s := &Server{
		prog:      prog,
		b:         b,
		cfg:       cfg.withDefaults(),
		locks:     NewLockManager(),
		obs:       cfg.Observer,
		srcByName: make(map[string]*sourceState),
		tables:    make(map[*core.FlatGraph]*graphTable),
	}
	for _, src := range prog.Sources {
		g := prog.Graphs[src.Node.Name]
		tbl, err := s.buildTable(g)
		if err != nil {
			return nil, err
		}
		st := &sourceState{tbl: tbl, name: src.Node.Name, fn: b.sources[src.Node.Name]}
		st.recPool.New = func() any { return &pooledRec{pool: &st.recPool} }
		if fname, ok := prog.Sessions[src.Node.Name]; ok {
			st.session = b.sessions[fname]
		}
		s.srcs = append(s.srcs, st)
		s.srcByName[st.name] = st
	}
	return s, nil
}

// buildTable resolves every vertex of a graph into its dense info slot.
// Graph flattening assigns IDs densely (Nodes[v.ID] == v), so the table
// is exactly len(g.Nodes) entries.
func (s *Server) buildTable(g *core.FlatGraph) (*graphTable, error) {
	if tbl, ok := s.tables[g]; ok {
		return tbl, nil
	}
	tbl := &graphTable{g: g, info: make([]vertexInfo, len(g.Nodes))}
	for _, v := range g.Nodes {
		vi := &tbl.info[v.ID]
		switch v.Kind {
		case core.FlatExec:
			vi.fn = s.b.nodes[v.Node.Name]
			vi.blocking = s.b.blocking[v.Node.Name]
			vi.outArity = len(v.Node.Out)
			vi.isSink = v.Node.IsSink()
		case core.FlatBranch:
			cc, err := s.compileBranch(v)
			if err != nil {
				return nil, err
			}
			vi.cases = cc
		case core.FlatAcquire:
			// Release vertices need only the constraint count (the held
			// stack's tail is the set being released), so resolution is
			// acquire-side only.
			vi.cons = make([]resolvedCon, len(v.Cons))
			for i, c := range v.Cons {
				vi.cons[i] = s.locks.Resolve(c)
			}
		}
	}
	s.tables[g] = tbl
	return tbl, nil
}

func (s *Server) compileBranch(v *core.FlatNode) ([]compiledCase, error) {
	n := v.Node
	out := make([]compiledCase, 0, len(n.Cases))
	for i, cs := range n.Cases {
		c := compiledCase{edge: v.Out[i]}
		for arg, elem := range cs.Pattern {
			if elem.Wildcard {
				continue
			}
			td := s.prog.Typedefs[elem.Type]
			fn := s.b.preds[td.Func]
			if fn == nil {
				return nil, &BindingError{What: "predicate", Name: td.Func, Msg: "not bound"}
			}
			c.checks = append(c.checks, predCheck{arg: arg, fn: fn})
		}
		out = append(out, c)
	}
	return out, nil
}

// Stats exposes the server's live counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Program returns the compiled program the server executes.
func (s *Server) Program() *core.Program { return s.prog }

// --- lifecycle -----------------------------------------------------------

// Start launches the configured engine and returns once its source
// loops and workers are running. The context governs admission: when it
// is cancelled sources stop, in-flight flows drain, and Wait returns.
// Starting a started (or finished) server is an error; servers are
// single-run.
func (s *Server) Start(ctx context.Context) error {
	entry, ok := lookupEngine(s.cfg.Kind)
	if !ok {
		return fmt.Errorf("flux/runtime: unknown engine %v", s.cfg.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine != nil {
		return fmt.Errorf("flux/runtime: server already started")
	}
	runCtx, cancel := context.WithCancel(ctx)
	eng := entry.factory(s)
	if err := eng.Start(runCtx); err != nil {
		cancel()
		return err
	}
	s.engine = eng
	s.runCtx = runCtx
	s.cancel = cancel
	le := &liveEngine{eng: eng, ctx: runCtx}
	le.rs, _ = eng.(recordSubmitter)
	le.fc, _ = eng.(flowCarrier)
	s.live.Store(le)
	s.done = make(chan struct{})
	done := s.done
	go func() {
		// Natural completion (every source ErrStop, no keep-alive) and
		// cancellation both land here: wait for full quiescence, then
		// publish the run error — the caller context's error, so a
		// deliberate Shutdown reads as a clean (nil) run.
		_ = eng.Drain(context.Background())
		s.mu.Lock()
		s.runErr = ctx.Err()
		s.mu.Unlock()
		cancel()
		close(done)
	}()
	return nil
}

// Wait blocks until the run ends — every source exhausted and in-flight
// flows drained, the Start context cancelled, or Shutdown complete —
// and returns the run's error: the Start context's error, or nil after
// a clean finish or deliberate Shutdown.
func (s *Server) Wait() error {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if done == nil {
		return ErrNotStarted
	}
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Shutdown gracefully stops the server: sources stop originating flows,
// Inject stops admitting, and in-flight flows run to their terminals.
// It blocks until the drain completes or ctx expires, returning
// ctx.Err() in the latter case (flows keep draining in the background;
// Wait still reports the final outcome). Shutdown is safe to call
// concurrently and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	eng, cancel := s.engine, s.cancel
	s.mu.Unlock()
	if eng == nil {
		return ErrNotStarted
	}
	cancel()
	return eng.Drain(ctx)
}

// Inject admits one record on the named source's flow graph, as if that
// source had produced it — the external-admission path for keep-alive
// re-registration, macro benchmark harnesses, or any caller outside the
// program's own sources. The source's session function, if any, applies.
// It returns ErrServerClosed once the server no longer admits flows and
// ErrNotStarted before Start. Callers injecting per event should resolve
// a SourceHandle once instead, skipping the name lookup.
func (s *Server) Inject(source string, rec Record) error {
	st, ok := s.srcByName[source]
	if !ok {
		return fmt.Errorf("flux/runtime: no source %q to inject into", source)
	}
	return s.injectRecord(st, rec)
}

// SourceHandle is a pre-resolved admission handle for one source: the
// per-event external-admission fast path. Resolving once hoists the
// source-name map lookup out of the per-record Inject, and the engine
// snapshot behind it is a single atomic load, so a connection plane
// injecting every request pays no lock and no allocation here.
type SourceHandle struct {
	s  *Server
	st *sourceState
}

// Source resolves a source by name for repeated injection. The handle
// is valid for the server's lifetime and safe for concurrent use; it
// can be resolved before Start (Inject then reports ErrNotStarted until
// the server runs).
func (s *Server) Source(name string) (*SourceHandle, error) {
	st, ok := s.srcByName[name]
	if !ok {
		return nil, fmt.Errorf("flux/runtime: no source %q to inject into", name)
	}
	return &SourceHandle{s: s, st: st}, nil
}

// Name returns the handle's source name.
func (h *SourceHandle) Name() string { return h.st.name }

// Inject admits one record on the handle's source graph, exactly as
// Server.Inject does for the same source.
func (h *SourceHandle) Inject(rec Record) error {
	return h.s.injectRecord(h.st, rec)
}

// Continue re-admits rec on the handle's source from inside fl, the
// running flow whose node is calling — keep-alive re-registration from a
// conversation's last node. When fl runs on a goroutine that may block
// (a pool worker, a thread-per-flow goroutine, a work-stealing offload
// worker) and no admitted work waits ahead of it, rec becomes that
// goroutine's next flow, run once fl retires: no queue trip and no
// wake. Otherwise — fl nil or on a dispatcher, a backlog queued, the
// server draining — it is exactly Inject, and either way it counts one
// Started flow or returns Inject's error.
func (h *SourceHandle) Continue(fl *Flow, rec Record) error {
	if fl != nil && fl.car != nil && fl.srv == h.s {
		if h.s.live.Load().fc.carry(fl, h.st, rec) {
			h.s.stats.Started.Add(1)
			return nil
		}
	}
	return h.s.injectRecord(h.st, rec)
}

// flowCarrier is implemented by engines whose blocking-capable
// goroutines run a flow's successor inline. carry hands rec to the
// goroutine behind fl.car and reports whether it did; it refuses after
// cancellation, while admitted work waits in the engine's queue (FIFO
// fairness under backlog), and when a successor is already parked.
type flowCarrier interface {
	carry(fl *Flow, st *sourceState, rec Record) bool
}

// injectRecord is the engine-facing admission path shared by Inject and
// SourceHandle.Inject.
func (s *Server) injectRecord(st *sourceState, rec Record) error {
	le := s.live.Load()
	if le == nil {
		return ErrNotStarted
	}
	if le.rs != nil {
		// The engine builds the flow itself (worker-side); hand it the
		// bare record so the session function runs exactly once, there.
		if err := le.rs.submitRecord(st, rec); err != nil {
			return err
		}
	} else {
		fl := s.newFlow(le.ctx, st.sessionOf(rec))
		fl.src = st
		// Submit takes ownership of the flow, success or failure.
		if err := le.eng.Submit(fl, rec); err != nil {
			return err
		}
	}
	s.stats.Started.Add(1)
	return nil
}

// Run executes the program until the context is cancelled or every
// source reports ErrStop, then drains in-flight flows: Start followed
// by Wait.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(ctx); err != nil {
		return err
	}
	return s.Wait()
}

// flowPool recycles Flow objects across requests; each pooled flow keeps
// its held-lock stack's backing array, so a steady-state server runs
// request flows without a single heap allocation in the coordination
// layer.
var flowPool = sync.Pool{
	New: func() any { return &Flow{held: make([]heldToken, 0, 4)} },
}

// newFlow creates (or recycles) the per-request context.
func (s *Server) newFlow(ctx context.Context, session uint64) *Flow {
	fl := flowPool.Get().(*Flow)
	fl.Ctx = ctx
	fl.Session = session
	fl.srv = s
	if s.obs != nil {
		fl.start = time.Now()
	}
	return fl
}

// freeFlow returns a retired flow to the pool. Callers guarantee no
// reference survives: the flow has reached a terminal (all locks
// released) or was a source poll context that is no longer in use.
func (s *Server) freeFlow(fl *Flow) {
	// The flow's terminal reclaims its pooled source record; the values
	// are released for GC, the backing array is reused.
	fl.releaseRecord()
	fl.Ctx = nil
	fl.Session = 0
	fl.path = 0
	fl.srv = nil
	fl.src = nil
	fl.disp = nil
	fl.car = nil
	// The embedded waiter node is dirty only if the flow ever parked on
	// a contended constraint; most flows never do, so test one field
	// instead of unconditionally zeroing the whole node.
	if fl.lw.fl != nil {
		fl.lw = lockWaiterNode{}
	}
	fl.held = fl.held[:0]
	flowPool.Put(fl)
}

// sessionOf computes the session id for a fresh source record.
func (st *sourceState) sessionOf(rec Record) uint64 {
	if st.session == nil {
		return 0
	}
	return st.session(rec)
}

// --- shared per-vertex execution -----------------------------------------

// stepResult describes the outcome of executing one vertex.
type stepResult struct {
	next     *core.FlatNode
	rec      Record
	terminal bool
}

// callNode invokes an exec vertex's node function with observation and
// arity validation. It performs no flow-state transition of its own.
func (s *Server) callNode(fl *Flow, tbl *graphTable, v *core.FlatNode, rec Record) (Record, error) {
	info := &tbl.info[v.ID]
	var t0 time.Time
	obs := s.obs
	if obs != nil {
		t0 = time.Now()
	}
	out, err := info.fn(fl, rec)
	if obs != nil {
		obs.NodeDone(tbl.g, v, time.Since(t0))
	}
	if err == nil && !info.isSink && len(out) != info.outArity {
		s.stats.ArityErrors.Add(1)
		err = fmt.Errorf("flux/runtime: node %q returned %d values, signature declares %d",
			v.Node.Name, len(out), info.outArity)
	}
	return out, err
}

// afterExec performs the post-execution transition for an exec vertex:
// the normal edge on success, the error edge (with lock unwind) on
// failure, or the folded handler edge when both coincide.
func (s *Server) afterExec(fl *Flow, v *core.FlatNode, in, out Record, err error) stepResult {
	if err != nil {
		s.stats.NodeErrors.Add(1)
		if v.ErrEdge != nil {
			// The flow abandons its bracket structure: release every
			// held lock, then continue at the handler (or the error
			// terminal) with the failing node's input record.
			fl.path += v.ErrEdge.Inc
			s.locks.ReleaseAll(fl)
			return stepResult{next: v.ErrEdge.To, rec: in}
		}
		// Folded edge: success and failure continue identically.
		fl.path += v.Out[0].Inc
		return stepResult{next: v.Out[0].To, rec: in}
	}
	fl.path += v.Out[0].Inc
	return stepResult{next: v.Out[0].To, rec: out}
}

// execVertex is the blocking engines' combined call-and-transition.
func (s *Server) execVertex(fl *Flow, tbl *graphTable, v *core.FlatNode, rec Record) stepResult {
	out, err := s.callNode(fl, tbl, v, rec)
	return s.afterExec(fl, v, rec, out, err)
}

// branchVertex evaluates dispatch cases in order and follows the first
// match (§2.3). A record matching no case terminates the flow ("dropped");
// the drop is observed like an error path, with the partial Ball-Larus
// register identifying the route to the unmatched dispatch.
func (s *Server) branchVertex(fl *Flow, tbl *graphTable, v *core.FlatNode, rec Record) stepResult {
	for _, c := range tbl.info[v.ID].cases {
		matched := true
		for _, chk := range c.checks {
			if chk.arg >= len(rec) || !chk.fn(rec[chk.arg]) {
				matched = false
				break
			}
		}
		if matched {
			fl.path += c.edge.Inc
			return stepResult{next: c.edge.To, rec: rec}
		}
	}
	s.stats.Dropped.Add(1)
	s.locks.ReleaseAll(fl)
	if obs := s.obs; obs != nil {
		obs.FlowDone(tbl.g, fl.path, FlowDropped, time.Since(fl.start))
	}
	return stepResult{terminal: true}
}

// finishFlow handles the exit and error terminals.
func (s *Server) finishFlow(fl *Flow, g *core.FlatGraph, v *core.FlatNode) {
	// Defensive: a well-formed graph releases everything on the normal
	// path and the error transition releases the rest, but a dropped or
	// malformed flow must never leak locks.
	s.locks.ReleaseAll(fl)
	outcome := FlowCompleted
	switch v.Kind {
	case core.FlatExit:
		s.stats.Completed.Add(1)
	case core.FlatError:
		s.stats.Errored.Add(1)
		outcome = FlowErrored
	}
	if obs := s.obs; obs != nil {
		obs.FlowDone(g, fl.path, outcome, time.Since(fl.start))
	}
}

// runFlow walks a flow to completion, blocking on locks as needed, and
// retires the flow (returning it to the pool). Used by the threaded and
// pool engines.
func (s *Server) runFlow(fl *Flow, tbl *graphTable, rec Record) {
	v := tbl.g.Entry
	for {
		switch v.Kind {
		case core.FlatExec:
			r := s.execVertex(fl, tbl, v, rec)
			v, rec = r.next, r.rec
		case core.FlatBranch:
			r := s.branchVertex(fl, tbl, v, rec)
			if r.terminal {
				s.freeFlow(fl)
				return
			}
			v, rec = r.next, r.rec
		case core.FlatAcquire:
			for _, rc := range tbl.info[v.ID].cons {
				s.locks.acquireResolved(fl, rc)
			}
			fl.path += v.Out[0].Inc
			v = v.Out[0].To
		case core.FlatRelease:
			s.locks.releaseN(fl, len(v.Cons))
			fl.path += v.Out[0].Inc
			v = v.Out[0].To
		case core.FlatExit, core.FlatError:
			s.finishFlow(fl, tbl.g, v)
			s.freeFlow(fl)
			return
		}
	}
}

// runCarried runs fl with runFlow, then every successor handed to car
// (SourceHandle.Continue), each on the calling goroutine. fl.car is set
// by the caller, which may leave it nil to keep fl from handing one over.
func (s *Server) runCarried(ctx context.Context, car *carrier, fl *Flow, tbl *graphTable, rec Record) {
	for {
		s.runFlow(fl, tbl, rec)
		st, next := car.take()
		if st == nil {
			return
		}
		fl = s.newFlow(ctx, st.sessionOf(next))
		fl.car = car
		tbl, rec = st.tbl, next
	}
}
