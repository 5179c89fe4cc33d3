// Package webserver is the paper's HTTP/1.1 web server (§4.2) written as
// a Flux program: a 15-line coordination layer over sequential node
// functions. It serves the SPECweb99-like static corpus with an LFU
// response cache under Flux atomicity constraints, and dynamic pages
// through the FScript interpreter (the PHP substitute).
//
// Connection admission runs on the shared connection plane
// (internal/netkit): the plane's accept loop wraps each connection in
// pooled state and admits it through the runtime's external-admission
// path (Server.Inject via a pre-resolved SourceHandle), and keep-alive
// re-registration goes back through the same path — the Listen source
// exists only as the graph's root. With an admission watermark set, the
// plane watches the engine's queue-depth samples and sheds load past it:
// fresh connections get an explicit 503, keep-alive responses announce
// Connection: close, and every shed is counted on the Observer plane.
package webserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/lfu"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
	"github.com/flux-lang/flux/internal/telemetry"
)

// FluxSource is the web server's Flux program. Its shape follows the
// image server of Figure 2: a source, one abstract node, a three-way
// predicate dispatch (dynamic page, cache hit, cache miss), error
// handlers, and a cache constraint spanning the three cache-touching
// nodes.
const FluxSource = `
// concrete node signatures
Listen () => (conn c);
ReadRequest (conn c) => (conn c, bool close, http_req *req);
CheckCache (conn c, bool close, http_req *req) => (conn c, bool close, http_req *req);
ReadFile (conn c, bool close, http_req *req) => (conn c, bool close, http_req *req);
StoreInCache (conn c, bool close, http_req *req) => (conn c, bool close, http_req *req);
RunScript (conn c, bool close, http_req *req) => (conn c, bool close, http_req *req);
HandlePost (conn c, bool close, http_req *req) => (conn c, bool close, http_req *req);
SendResponse (conn c, bool close, http_req *req) => (conn c, bool close, http_req *req);
Complete (conn c, bool close, http_req *req) => ();
Discard (conn c) => ();
FourOhFour (conn c, bool close, http_req *req) => ();
Cleanup (conn c, bool close, http_req *req) => ();

// request flow
source Listen => Page;
Page = ReadRequest -> CheckCache -> Handler -> SendResponse -> Complete;

// predicate dispatch: POSTs run the form handler, dynamic pages run the
// script engine, cache hits pass through, misses read and cache the file
typedef post TestPost;
typedef dynamic TestDynamic;
typedef hit TestInCache;
Handler:[_, _, post] = HandlePost;
Handler:[_, _, dynamic] = RunScript;
Handler:[_, _, hit] = ;
Handler:[_, _, _] = ReadFile -> StoreInCache;

// error handling
handle error ReadRequest => Discard;
handle error ReadFile => FourOhFour;
handle error SendResponse => Cleanup;

// atomicity constraints guard the shared response cache
atomic CheckCache:{cache};
atomic StoreInCache:{cache};
atomic Complete:{cache};
atomic Cleanup:{cache};
`

// Request is the per-request state flowing through the graph (the
// paper's http_req struct): the parsed request, its classification, and
// the response body the handlers chose. The path is the cache key.
type Request struct {
	httpkit.Request

	post    bool
	dynamic bool
	hit     bool
	stored  bool // this flow inserted the cache entry (owns one reference)
	// body is the response payload: a cached or freshly read static body
	// (sent zero-copy with an interned header), a large materialized
	// file (sent with sendfile(2)), or a rendered page.
	body httpkit.Body
	// rec backs the flow's record (conn, close, this request): a flow
	// owns its Request, so the record needs no allocation of its own.
	rec [3]any
}

// Config tunes the server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Files is the static corpus (default: 1-directory SPECweb set).
	Files *loadgen.FileSet
	// CacheBytes bounds the response cache (default 64 MB).
	CacheBytes int64
	// Engine selects the Flux runtime (§3.2).
	Engine runtime.EngineKind
	// PoolSize is the worker count for the thread-pool engine.
	PoolSize int
	// Telemetry, when non-nil, is the server's observer: flow terminals
	// by path (the §5.2 profile), node latencies, queue depths, the
	// connection plane's sheds and admission counters, and the dynamic
	// pages' dispatch counters, all under the server's name.
	Telemetry *telemetry.Telemetry
	// MaxKeepAlive bounds requests per connection (default 100).
	MaxKeepAlive int
	// ScriptWork is the loop bound handed to dynamic pages (default
	// 2000), controlling per-request CPU like the paper's PHP pages.
	ScriptWork int
	// AdmitWatermark, when > 0, bounds admission: once the engine's
	// sampled queue depths sum past it, fresh connections are shed with
	// a 503 and keep-alive responses announce Connection: close until
	// the backlog drains. 0 admits unboundedly (the pre-overload-control
	// behavior).
	AdmitWatermark int
	// MaxConns, when > 0, caps live connections; accepts beyond it are
	// shed with a 503. The queue-depth watermark reacts to backlog with
	// sampling lag, so a reconnect burst in a between-samples window can
	// overshoot it; the cap bounds that burst.
	MaxConns int
	// TargetP95, when > 0, puts admission under the SLO controller
	// instead of a hand-picked bound: served latency is measured on the
	// Observer plane (completed flows' elapsed time) and every control
	// interval the watermark — and the connection cap, 2× it — takes one
	// AIMD step to hold the window's p95 at the target. AdmitWatermark
	// becomes merely the starting point (default 64 when unset).
	TargetP95 time.Duration
	// HeaderTimeout, when > 0, bounds reading a fresh connection's
	// request head: a client that dials and trickles bytes (slow loris)
	// is disconnected and counted as a shed instead of pinning a worker
	// forever.
	HeaderTimeout time.Duration
	// IdleTimeout, when > 0, bounds the wait for the next request on a
	// keep-alive connection; dead peers are reaped and counted the same
	// way.
	IdleTimeout time.Duration
	// WriteTimeout, when > 0, bounds every response write: a dead or
	// zero-window client (write-side slow loris) stalls a response for
	// at most this long before the write fails, the connection is torn
	// down, and the shed is counted — the write-side twin of
	// HeaderTimeout/IdleTimeout.
	WriteTimeout time.Duration
}

// Server is a runnable Flux web server, driven through the same
// lifecycle as the runtime underneath: Start, Shutdown, Wait — or Run.
type Server struct {
	cfg   Config
	prog  *core.Program
	rt    *runtime.Server
	cp    *netkit.FluxPlane
	ctrl  *netkit.Controller
	cache *lfu.Cache
	pages *fscript.BenchPages
}

// New compiles the Flux program, binds the node implementations, and
// opens the listener. Call Run to serve.
func New(cfg Config) (*Server, error) {
	if cfg.Files == nil {
		cfg.Files = loadgen.NewFileSet(1)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxKeepAlive <= 0 {
		cfg.MaxKeepAlive = 100
	}
	if cfg.ScriptWork <= 0 {
		cfg.ScriptWork = 2000
	}
	if cfg.TargetP95 > 0 && cfg.AdmitWatermark <= 0 {
		cfg.AdmitWatermark = 64 // the controller's starting point, not a tuning decision
	}

	astProg, err := parser.Parse("webserver.flux", FluxSource)
	if err != nil {
		return nil, fmt.Errorf("webserver: parse: %w", err)
	}
	prog, err := core.Build(astProg)
	if err != nil {
		return nil, fmt.Errorf("webserver: compile: %w", err)
	}

	pages, err := fscript.NewBenchPages()
	if err != nil {
		return nil, fmt.Errorf("webserver: dynamic templates: %w", err)
	}

	s := &Server{
		cfg:   cfg,
		prog:  prog,
		cache: lfu.New(cfg.CacheBytes),
		pages: pages,
	}
	gate, obs := netkit.NewGateObserver(cfg.AdmitWatermark, cfg.Telemetry.Observer())
	if cfg.TargetP95 > 0 {
		// The controller joins the observer chain now (FlowDone is its
		// input signal) and meets the plane after the runtime exists.
		ctrl, err := netkit.NewController(netkit.ControllerConfig{
			Target: cfg.TargetP95,
			Kind:   cfg.Engine,
			Sink:   cfg.Telemetry.Observer(),
		}, gate, nil)
		if err != nil {
			return nil, fmt.Errorf("webserver: %w", err)
		}
		s.ctrl = ctrl
		obs = runtime.MultiObserver(obs, ctrl)
	}

	b := runtime.NewBindings().
		BindSource("Listen", s.listen).
		BindNode("ReadRequest", s.readRequest).
		BindNode("CheckCache", s.checkCache).
		BindNode("ReadFile", s.readFile).
		BindNode("StoreInCache", s.storeInCache).
		BindNode("RunScript", s.renderPage).
		BindNode("HandlePost", s.renderPage).
		BindNode("SendResponse", s.sendResponse).
		BindNode("Complete", s.complete).
		BindNode("Discard", s.discard).
		BindNode("FourOhFour", s.fourOhFour).
		BindNode("Cleanup", s.cleanup).
		BindPredicate("TestPost", func(v any) bool { return v.(*Request).post }).
		BindPredicate("TestDynamic", func(v any) bool { return v.(*Request).dynamic }).
		BindPredicate("TestInCache", func(v any) bool { return v.(*Request).hit }).
		// Dynamic pages and POSTs burn interpreter CPU, so they ride the
		// blocking path with the socket I/O nodes: the event engine
		// offloads them instead of stalling its dispatcher.
		MarkBlocking("ReadRequest", "SendResponse", "RunScript", "HandlePost")

	rt, err := runtime.New(prog, b,
		runtime.WithEngine(cfg.Engine),
		runtime.WithPoolSize(cfg.PoolSize),
		runtime.WithObserver(obs),
		runtime.WithQueueSampleInterval(netkit.SamplePeriod(cfg.AdmitWatermark)),
		// Admission is external (the connection plane injects every
		// flow), so the server must outlive its instantly-exhausted
		// source.
		runtime.WithKeepAlive(),
	)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.cp, err = netkit.NewFluxPlane(rt, "Listen", netkit.Config{
		Addr:         cfg.Addr,
		Gate:         gate,
		MaxConns:     cfg.MaxConns,
		ShedResponse: httpkit.Unavailable(),
		WriteTimeout: cfg.WriteTimeout,
		Observer:     obs,
		Name:         "webserver",
	})
	if err != nil {
		return nil, err
	}
	if s.ctrl != nil {
		s.ctrl.BindPlane(s.cp.Plane())
	}
	if cfg.Telemetry != nil {
		pl := s.cp.Plane()
		cfg.Telemetry.RegisterConns("webserver", func() telemetry.ConnStats {
			st := pl.Stats()
			return telemetry.ConnStats{Accepted: st.Accepted, Admitted: st.Admitted, Shed: st.Shed, Live: st.Live}
		})
		cfg.Telemetry.RegisterDynPages("webserver", func() telemetry.DynPageStats {
			st := pages.DynStats()
			return telemetry.DynPageStats{Compiled: st.Compiled, Interpreted: st.Interpreted, FragHits: st.FragHits, FragMisses: st.FragMisses}
		})
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.cp.Addr() }

// Program exposes the compiled Flux program (for DOT output, simulation,
// and profiling reports).
func (s *Server) Program() *core.Program { return s.prog }

// Pages exposes the dynamic-page engine (dispatch mode and counters,
// for the benchmark harness's compiled-path assertion).
func (s *Server) Pages() *fscript.BenchPages { return s.pages }

// Stats exposes the runtime's flow counters.
func (s *Server) Stats() *runtime.Stats { return s.rt.Stats() }

// PlaneStats exposes the connection plane's admission counters.
func (s *Server) PlaneStats() netkit.StatsSnapshot { return s.cp.PlaneStats() }

// Gate exposes the admission gate (nil without an AdmitWatermark) —
// the overload signal, for harnesses and tests.
func (s *Server) Gate() *netkit.Gate { return s.cp.Gate() }

// Controller exposes the SLO controller (nil without a TargetP95).
func (s *Server) Controller() *netkit.Controller { return s.ctrl }

// CacheStats exposes hit/miss/eviction counters.
func (s *Server) CacheStats() (hits, misses, evictions uint64) { return s.cache.Stats() }

// Start launches the Flux runtime, the connection plane's accept loop,
// and (with a TargetP95) the SLO control loop, returning once all are
// running. The server then serves until the context is cancelled or
// Shutdown is called.
func (s *Server) Start(ctx context.Context) error {
	if err := s.cp.Start(ctx); err != nil {
		return err
	}
	if s.ctrl != nil {
		s.ctrl.Start(ctx)
	}
	return nil
}

// Shutdown gracefully stops the server: the plane stops accepting and
// interrupts every live connection (so flows blocked reading idle
// keep-alive clients reach their error terminals), then the Flux
// runtime stops admitting and drains in-flight flows until their
// terminals or ctx expires. Keep-alive re-registrations racing the
// shutdown are refused by Inject and their connections dropped — and
// counted, via the Observer plane. The control loop stops first — a
// controller stepping the watermark while the plane drains would fight
// the shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.ctrl != nil {
		s.ctrl.Stop()
	}
	return s.cp.Shutdown(ctx)
}

// Wait blocks until the run ends and returns its error.
func (s *Server) Wait() error { return s.cp.Wait() }

// Run serves until the context is cancelled: Start followed by Wait.
func (s *Server) Run(ctx context.Context) error {
	if err := s.Start(ctx); err != nil {
		return err
	}
	return s.Wait()
}

// --- node implementations --------------------------------------------------

// listen is the graph's source node. The connection plane owns accept
// and admission: every flow — fresh connection or keep-alive
// re-registration — enters through Inject on this source's graph, so
// the source itself retires immediately and the runtime's keep-alive
// mode holds the server open for injections.
func (s *Server) listen(fl *runtime.Flow) (runtime.Record, error) {
	return nil, runtime.ErrStop
}

// readRequest parses one HTTP/1.1 request from the connection. The
// connection's last response is decided here: the client asked to
// close, the keep-alive cap is reached, or the admission gate reports
// overload — in which case announcing Connection: close sheds this
// conversation instead of queueing its future requests unboundedly.
func (s *Server) readRequest(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	// Slow-loris hardening: a fresh connection gets HeaderTimeout to
	// deliver its request head, a keep-alive conversation IdleTimeout to
	// produce its next request. Either deadline popping is the server's
	// decision, not the client's failure — counted as a shed before the
	// error route (Discard) closes the connection. Nothing else reads the
	// connection and every read re-arms its deadline here, so none is
	// cleared after a parse; only a header deadline with no idle
	// deadline to replace it is cleared, before the second read.
	limit := s.cfg.HeaderTimeout
	if c.Served > 0 {
		limit = s.cfg.IdleTimeout
	}
	if limit > 0 {
		_ = c.SetReadDeadline(time.Now().Add(limit))
	} else if c.Served == 1 && s.cfg.HeaderTimeout > 0 {
		_ = c.SetReadDeadline(time.Time{})
	}
	req := requestPool.Get().(*Request)
	if err := req.parse(c.Reader()); err != nil {
		putRequest(req)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.cp.CountShed("timeout")
		}
		return nil, err // EOF, reset, timeout, or malformed: handled by Discard
	}
	closeAfter := !req.KeepAlive || c.Served+1 >= s.cfg.MaxKeepAlive || s.cp.Overloaded()
	req.rec = [3]any{c, closeAfter, req}
	return req.rec[:], nil
}

// checkCache looks up the static body for static paths; the "cache"
// constraint serializes it against StoreInCache and Complete. The cache
// holds bare bodies, not rendered responses: the header is a shared
// immutable blob chosen at send time, so hits and misses serve the same
// bytes with no per-response assembly.
func (s *Server) checkCache(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	req := in[2].(*Request)
	if req.dynamic {
		return in, nil
	}
	if body, ok := s.cache.Get(req.Path); ok {
		req.hit = true
		req.body.Bytes = body
	}
	return in, nil
}

// readFile fetches the static file, failing (to FourOhFour) on unknown
// paths. Large files of a materialized corpus are served with
// sendfile(2) and bypass the response cache — the kernel's page cache
// already holds them, so caching a user-space copy would only pay the
// copy tax back (httpkit.StaticBody makes the choice from the path).
func (s *Server) readFile(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	req := in[2].(*Request)
	body, key, ok := httpkit.StaticBody(s.cfg.Files, req.Path)
	if !ok {
		return nil, fmt.Errorf("webserver: no such file %q", req.Path)
	}
	req.body = body
	// From here on the path is the corpus's string, which StoreInCache
	// may keep as a cache key; the parsed one views a reused buffer.
	req.Path = key
	return in, nil
}

// storeInCache publishes the static body (sendfile-served bodies are
// never cached; their flows carry no bytes).
func (s *Server) storeInCache(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	req := in[2].(*Request)
	if req.body.Bytes != nil {
		s.cache.Put(req.Path, req.body.Bytes)
		req.stored = true
	}
	return in, nil
}

// renderPage runs both dynamic handlers, RunScript and HandlePost: an
// FScript page (the CPU-burning work page under /dynamic, the
// SPECweb99-style ad-rotation page under /adrotate) or a form POST's
// confirmation, rendered into a pooled buffer that SendResponse
// recycles. Pages run compiled-first, so the common case appends
// straight HTML with no interpreter in the path and no allocation.
func (s *Server) renderPage(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	req := in[2].(*Request)
	body, err := httpkit.RenderDynamic(s.pages, &req.Request, int64(s.cfg.ScriptWork))
	if err != nil {
		return nil, err
	}
	req.body = body
	return in, nil
}

// sendResponse writes the response through the shared responder: static
// bodies go out zero-copy (interned header and cached body in one
// writev(2), large materialized files with sendfile(2)), rendered pages
// with a per-response header. On the connection's last response
// Connection: close is announced so keep-alive clients reconnect
// instead of failing. A write deadline popping means a dead or
// zero-window client: the plane tears the connection down and counts
// the shed, and Cleanup retires the flow.
func (s *Server) sendResponse(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	req := in[2].(*Request)
	if err := httpkit.Respond(c, 200, "OK", "text/html", req.body, in[1].(bool)); err != nil {
		return nil, err
	}
	return in, nil
}

// complete releases the cache reference and either closes the connection
// or re-registers it for the next keep-alive request — as a new flow on
// the Listen source's graph, run next on this goroutine when the engine
// can (FluxPlane.Continue) and injected like a fresh connection
// otherwise. A refused re-registration (the server is draining) drops
// the connection through the plane, which counts it.
func (s *Server) complete(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	closeAfter := in[1].(bool)
	req := in[2].(*Request)
	if req.hit || req.stored {
		s.cache.Release(req.Path)
	}
	putRequest(req)
	c.Served++
	if closeAfter {
		c.Close()
		return nil, nil
	}
	s.cp.Continue(fl, c)
	return nil, nil
}

// discard closes a connection whose request could not be read (client
// disconnect ends every keep-alive conversation this way).
func (s *Server) discard(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	in[0].(*netkit.Conn).Close()
	return nil, nil
}

// cleanup releases the flow's cache reference and closes the connection
// when the response could not be delivered; without it a vanished client
// would leak a reference count and pin the entry in the cache forever.
func (s *Server) cleanup(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	req := in[2].(*Request)
	if req.hit || req.stored {
		s.cache.Release(req.Path)
	}
	putRequest(req)
	c.Close()
	return nil, nil
}

// fourOhFour answers unknown paths and closes (with the close
// announced, so a keep-alive client reconnects cleanly).
func (s *Server) fourOhFour(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	putRequest(in[2].(*Request))
	_ = httpkit.NotFound(c)
	c.Close()
	return nil, nil
}
