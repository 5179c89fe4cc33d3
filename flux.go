// Package flux is a Go implementation of the Flux coordination language
// for building high-performance servers, reproducing Burns, Grimaldi,
// Kostadinov, Berger, and Corner, "Flux: A Language for Programming
// High-Performance Servers" (USENIX ATC 2006).
//
// A Flux program composes sequential functions ("concrete nodes") into
// concurrent server data flows. The program declares:
//
//   - typed node signatures and source nodes (§2.1),
//   - abstract nodes — chains of nodes joined by "->" (§2.2),
//   - predicate types routing flows by runtime tests (§2.3),
//   - error handlers (§2.4), and
//   - atomicity constraints guarding shared state, with reader/writer
//     modes and per-session scope (§2.5).
//
// Compile type-checks the composition, rejects cyclic flows, assigns
// locks in a canonical deadlock-free order (hoisting out-of-order
// constraints with warnings, §3.1.1), flattens each source's flow into
// an executable graph, and numbers every path with the Ball-Larus
// algorithm for profiling (§5.2).
//
// The compiled program runs unchanged on interchangeable runtime
// engines (§3.2): goroutine-per-flow, a fixed pool with FIFO admission,
// and an event-driven engine whose dispatchers never block — one
// dispatcher for EventDriven, and for WorkStealing one deque-owning
// dispatcher per core that shards the event loop — all behind the
// runtime's Engine interface, so further engines plug in without
// touching the server. It
// can also be fed to the discrete-event simulator to predict server
// performance on hypothetical hardware before deployment (§5.1).
//
// # Quick start
//
// A server is configured with functional options and driven through an
// explicit lifecycle — Start launches the engine, Shutdown stops
// admission and drains in-flight flows under a deadline, Wait blocks
// until the run ends:
//
//	prog, err := flux.Compile("hello.flux", src)
//	b := flux.NewBindings().
//	        BindSource("Listen", listen).
//	        BindNode("Handle", handle)
//	srv, err := flux.New(prog, b, flux.WithEngine(flux.ThreadPool))
//	if err := srv.Start(ctx); err != nil { ... }
//	// ... serve traffic; srv.Inject can admit records from outside ...
//	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
//	defer cancel()
//	if err := srv.Shutdown(shCtx); err != nil { ... } // deadline hit, flows still draining
//	err = srv.Wait()
//
// Bounded workloads (and tests) can use srv.Run(ctx), which is Start
// followed by Wait: it returns once every source reports ErrStop and
// the last flow drains.
//
// Observability is one plane: the always-on Stats counters, and an
// optional Observer (flow terminals including drops and errors, node
// completions, engine queue-depth samples) attached with WithObserver.
// The standard observer is the Telemetry plane (WithTelemetry), and the
// §5.2 path profile is a view of it: Telemetry.PathProfile ranks the
// Ball-Larus paths it counts, and fluxbench -obs serves them live on
// /debug/flux/paths.
//
// See examples/ for complete servers: the paper's image-compression
// server (Figure 2), an HTTP/1.1 web server, a BitTorrent peer
// (Figure 7), and a multiplayer game server.
package flux

import (
	"time"

	"github.com/flux-lang/flux/internal/codegen"
	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/sim"
	"github.com/flux-lang/flux/internal/telemetry"
)

// Program is a compiled Flux program: the analyzed graph, lock
// assignment, flattened per-source flows, and Ball-Larus numbering.
type Program = core.Program

// Warning is a non-fatal compiler diagnostic (early lock acquisition,
// reader-to-writer promotion, missing catch-all case).
type Warning = core.Warning

// FlatGraph is one source's flattened, path-numbered executable flow.
type FlatGraph = core.FlatGraph

// FlatNode is one vertex of a flattened flow, as seen by Observer
// callbacks.
type FlatNode = core.FlatNode

// Compile parses and analyzes a Flux program. The name appears in
// diagnostics. Compilation warnings are available on the returned
// program's Warnings field.
func Compile(name, src string) (*Program, error) {
	astProg, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return core.Build(astProg)
}

// Runtime types, re-exported.
type (
	// Record is the value tuple flowing between nodes.
	Record = runtime.Record
	// Flow is the per-request execution context.
	Flow = runtime.Flow
	// NodeFunc implements a concrete node.
	NodeFunc = runtime.NodeFunc
	// SourceFunc implements a source node.
	SourceFunc = runtime.SourceFunc
	// PredicateFunc implements a predicate type.
	PredicateFunc = runtime.PredicateFunc
	// SessionFunc maps a source record to a session id.
	SessionFunc = runtime.SessionFunc
	// Bindings associates Flux names with Go implementations.
	Bindings = runtime.Bindings
	// Server executes a compiled program on an engine; it is driven
	// through Start, Shutdown, Wait, Inject — or Run for bounded work.
	Server = runtime.Server
	// Option configures a Server (see the With* constructors).
	Option = runtime.Option
	// Engine is the pluggable execution strategy behind a Server; new
	// engines register with RegisterEngine.
	Engine = runtime.Engine
	// EngineKind selects a registered engine.
	EngineKind = runtime.EngineKind
	// Stats holds a server's always-on flow counters.
	Stats = runtime.Stats
	// StatsSnapshot is a point-in-time copy of Stats.
	StatsSnapshot = runtime.StatsSnapshot
	// Observer is the unified observability plane: flow terminals
	// (including drops and errors), node completions, queue depths.
	Observer = runtime.Observer
	// ShedObserver is the optional Observer extension receiving
	// connection-plane admission drops (overload sheds, refused
	// admissions); MultiObserver forwards to members implementing it.
	ShedObserver = runtime.ShedObserver
	// SourceHandle is a pre-resolved external-admission handle for one
	// source (Server.Source): per-event injection without the
	// source-name lookup — the hot path for connection planes that
	// inject every request.
	SourceHandle = runtime.SourceHandle
	// FlowOutcome classifies how a flow ended.
	FlowOutcome = runtime.FlowOutcome
)

// Engine kinds: the three runtimes of §3.2, the event-driven one also
// as a multicore work-stealing kind. EventDriven and WorkStealing build
// the same engine and differ only in their default dispatcher count.
const (
	// ThreadPerFlow starts a goroutine per data flow.
	ThreadPerFlow = runtime.ThreadPerFlow
	// ThreadPool services flows with a fixed worker pool, FIFO admission.
	ThreadPool = runtime.ThreadPool
	// EventDriven runs node activations as events on one non-blocking
	// dispatcher (tune with WithDispatchers) with an async-I/O offload
	// pool.
	EventDriven = runtime.EventDriven
	// WorkStealing is the event-driven engine with one dispatcher per
	// core (default GOMAXPROCS, tune with WithDispatchers), each owning a
	// local run deque with idle-core work stealing.
	WorkStealing = runtime.WorkStealing
)

// Flow outcomes, as reported to Observer.FlowDone.
const (
	// FlowCompleted reached the exit terminal.
	FlowCompleted = runtime.FlowCompleted
	// FlowErrored reached the error terminal.
	FlowErrored = runtime.FlowErrored
	// FlowDropped matched no dispatch case.
	FlowDropped = runtime.FlowDropped
)

// Sentinel errors.
var (
	// ErrStop tells the engine a source is exhausted.
	ErrStop = runtime.ErrStop
	// ErrServerClosed is returned by Inject once the server stops
	// admitting flows.
	ErrServerClosed = runtime.ErrServerClosed
)

// NewBindings returns an empty binding set.
func NewBindings() *Bindings { return runtime.NewBindings() }

// New validates the bindings against the program and prepares a server
// configured by functional options; the server is inert until Start (or
// Run). With no options it is a thread-per-flow server with no observer.
func New(p *Program, b *Bindings, opts ...Option) (*Server, error) {
	return runtime.New(p, b, opts...)
}

// Server options.
var (
	// WithEngine selects the runtime system (§3.2) — any registered
	// kind; default ThreadPerFlow.
	WithEngine = runtime.WithEngine
	// WithPoolSize sets the thread-pool worker count (default
	// 4×GOMAXPROCS).
	WithPoolSize = runtime.WithPoolSize
	// WithDispatchers sets the event-loop count (default 1 for
	// EventDriven, GOMAXPROCS for WorkStealing).
	WithDispatchers = runtime.WithDispatchers
	// WithAsyncWorkers sizes the event-driven engine's blocking-call
	// offload pool (default 16).
	WithAsyncWorkers = runtime.WithAsyncWorkers
	// WithObserver attaches an observer to the unified plane.
	WithObserver = runtime.WithObserver
	// WithKeepAlive keeps the server admitting Inject flows after its
	// sources are exhausted, until Shutdown.
	WithKeepAlive = runtime.WithKeepAlive
	// WithQueueSampleInterval sets the queue-depth sampling period
	// (default 100ms; active only with an observer).
	WithQueueSampleInterval = runtime.WithQueueSampleInterval
	// WithAddedObserver composes an observer with the one already
	// configured instead of replacing it.
	WithAddedObserver = runtime.WithAddedObserver
)

// Live telemetry plane: always-on, allocation-free aggregation behind
// the Observer interface.
type (
	// Telemetry is the zero-alloc aggregation plane: per-graph flow
	// latency histograms and per-path counts (the §5.2 path profile),
	// per-node latency histograms, windowed queue-depth and ctrl/*
	// series, shed counters, sampled flow traces. Attach with
	// WithTelemetry.
	Telemetry = telemetry.Telemetry
	// TelemetrySnapshot is a point-in-time copy of the whole plane.
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry returns a telemetry plane with default 1-in-128 flow
// trace sampling per path.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry attaches the telemetry plane to a server alongside any
// other configured observer (it composes, never replaces).
func WithTelemetry(t *Telemetry) Option { return runtime.WithAddedObserver(t.Observer()) }

// RegisterEngine makes a new engine selectable through WithEngine —
// the extension point behind the three built-in runtimes.
func RegisterEngine(kind EngineKind, name string, factory runtime.EngineFactory) {
	runtime.RegisterEngine(kind, name, factory)
}

// ParseEngineKind resolves an engine name ("thread", "threadpool",
// "event", ...) to its kind — the inverse of EngineKind.String.
func ParseEngineKind(name string) (EngineKind, bool) { return runtime.ParseEngineKind(name) }

// MultiObserver combines observers into one, skipping nils.
func MultiObserver(obs ...Observer) Observer { return runtime.MultiObserver(obs...) }

// IntervalSource builds a source firing every interval; it waits on a
// timer or the flow's context. Bind each one to a single source.
func IntervalSource(d time.Duration) SourceFunc { return runtime.IntervalSource(d) }

// Path profiling (§5.2): Telemetry.PathProfile ranks a graph's paths.
type (
	// PathReport is one ranked hot-path row.
	PathReport = telemetry.PathReport
	// SortBy selects the hot-path ranking criterion.
	SortBy = telemetry.SortBy
)

// Hot-path rankings.
const (
	// ByCount ranks by execution frequency.
	ByCount = telemetry.ByCount
	// ByTotalTime ranks by cumulative time.
	ByTotalTime = telemetry.ByTotalTime
	// ByMeanTime ranks by per-execution cost.
	ByMeanTime = telemetry.ByMeanTime
)

// Simulation (§5.1).
type (
	// SimParams parameterizes a discrete-event simulation.
	SimParams = sim.Params
	// SimSourceParams describes one source's arrival process.
	SimSourceParams = sim.SourceParams
	// SimResult reports simulated throughput, latency, utilization.
	SimResult = sim.Result
)

// Simulate runs the discrete-event simulator over a compiled program,
// predicting performance under the given parameters (CPU count, arrival
// rates, per-node service times, branch probabilities).
func Simulate(p *Program, params SimParams) SimResult {
	return sim.New(p, params).Run()
}

// ParamsFromTelemetry derives simulator parameters (node means, branch
// probabilities, error rates) from a telemetry plane that observed a run
// of p — the observed-parameter workflow of §5.1. The caller supplies
// arrival rates and the CPU count.
func ParamsFromTelemetry(p *Program, t *Telemetry) SimParams {
	return sim.FromTelemetry(p, t)
}

// Code generation (§3.1).

// GenerateStubs renders Go binding stubs for every concrete node,
// predicate, and session function of the program.
func GenerateStubs(p *Program, pkg string) string { return codegen.Stubs(p, pkg) }

// GenerateDOT renders the flattened program graphs in Graphviz format.
func GenerateDOT(p *Program) string { return codegen.DOT(p) }

// GenerateSimulatorSource renders per-node discrete-event-simulation
// code in the style of the paper's Figure 5.
func GenerateSimulatorSource(p *Program) string { return codegen.SimulatorSource(p) }
