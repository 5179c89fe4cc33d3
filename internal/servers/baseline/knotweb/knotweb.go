// Package knotweb is the hand-written comparison web server standing in
// for knot (the Capriccio threaded web server the paper benchmarks
// against in §4.2). One goroutine per connection serves HTTP/1.1
// keep-alive requests from the same SPECweb-like corpus, with a
// mutex-guarded LFU response cache — the conventional design Flux is
// measured against. Requests are parsed and answered by the same HTTP
// layer (httpkit) as the Flux web server, and dynamic pages and form
// POSTs render through the same FScript pages, so the comparison
// measures server architecture, not HTTP code or dynamic-content
// engines.
//
// Connections are accepted by the shared connection plane
// (internal/netkit) — the same accept loop, pooled per-connection
// state, and shed accounting the Flux servers use — with MaxConns as
// the threaded design's admission bound: a goroutine-per-connection
// server has no queue to watch, so overload control caps concurrent
// connections and sheds the excess with a 503.
package knotweb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/lfu"
	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/servers/baseline/lifecycle"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

// Config tunes the baseline server.
type Config struct {
	Addr       string
	Files      *loadgen.FileSet
	CacheBytes int64
	// MaxKeepAlive bounds requests per connection (default 100).
	MaxKeepAlive int
	// ScriptWork is the loop bound handed to dynamic pages (default
	// 2000), matching the Flux web server's knob.
	ScriptWork int
	// MaxConns, when > 0, bounds concurrent connections; accepts beyond
	// it are shed with a 503 — the thread-per-connection server's
	// admission control. 0 admits unboundedly.
	MaxConns int
	// WriteTimeout, when > 0, bounds every response write; a dead or
	// zero-window client fails the write and the plane counts the shed.
	WriteTimeout time.Duration
}

// Server is the threaded baseline web server.
type Server struct {
	cfg    Config
	plane  *netkit.Plane
	cache  *lfu.Locked
	pages  *fscript.BenchPages
	served atomic.Uint64
	conns  sync.WaitGroup

	lifecycle.Runner
}

// New opens the listener.
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
	pages, err := fscript.NewBenchPages()
	if err != nil {
		return nil, fmt.Errorf("knotweb: dynamic templates: %w", err)
	}
	s := &Server{cfg: cfg, cache: lfu.NewLocked(cfg.CacheBytes), pages: pages}
	s.plane, err = netkit.Listen(netkit.Config{
		Addr:         cfg.Addr,
		Admit:        s.admit,
		MaxConns:     cfg.MaxConns,
		ShedResponse: httpkit.Unavailable(),
		WriteTimeout: cfg.WriteTimeout,
		Name:         "knotweb",
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.plane.Addr() }

// Served returns the number of requests answered.
func (s *Server) Served() uint64 { return s.served.Load() }

// PlaneStats exposes the connection plane's admission counters.
func (s *Server) PlaneStats() netkit.StatsSnapshot { return s.plane.Stats() }

// admit services an admitted connection on its own goroutine — the
// knot design.
func (s *Server) admit(c *netkit.Conn) error {
	s.conns.Add(1)
	go func() {
		defer s.conns.Done()
		s.serveConn(c)
	}()
	return nil
}

// Run accepts connections until the context is cancelled. Shutdown
// interrupts reads blocked on idle keep-alive clients (the plane closes
// every live connection), so the wait below cannot hang on a silent
// client.
func (s *Server) Run(ctx context.Context) error {
	if err := s.plane.Start(ctx); err != nil {
		return err
	}
	_ = s.plane.Wait()
	s.conns.Wait()
	return ctx.Err()
}

// serveConn runs one connection's keep-alive conversation start to
// finish on its own goroutine: read, look up or render, respond. Each
// request is parsed into the goroutine's one Request, so the next is
// read only after the current response is written.
func (s *Server) serveConn(c *netkit.Conn) {
	defer c.Close()
	var req httpkit.Request
	for c.Served < s.cfg.MaxKeepAlive {
		if err := httpkit.ReadRequest(c.Reader(), &req); err != nil {
			return
		}
		closing := !req.KeepAlive || c.Served+1 >= s.cfg.MaxKeepAlive
		var body httpkit.Body
		var err error
		ok := true
		if req.Dynamic() {
			if body, err = httpkit.RenderDynamic(s.pages, &req, int64(s.cfg.ScriptWork)); err != nil {
				return
			}
		} else if body, ok = s.lookup(req.Path); !ok {
			_ = httpkit.NotFound(c)
			return
		}
		if err := httpkit.Respond(c, 200, "OK", "text/html", body, closing); err != nil {
			return
		}
		s.served.Add(1)
		c.Served++
		if closing {
			return
		}
	}
}

// lookup returns a static path's body from the response cache or, on a
// miss, httpkit.StaticBody's choice: bytes are cached under the
// corpus's key, a large materialized file is streamed from disk and
// never cached. false for unknown paths.
func (s *Server) lookup(path string) (httpkit.Body, bool) {
	if cached, ok := s.cache.Get(path); ok {
		s.cache.Release(path)
		return httpkit.Body{Bytes: cached}, true
	}
	body, key, ok := httpkit.StaticBody(s.cfg.Files, path)
	if body.Bytes != nil {
		s.cache.Put(key, body.Bytes)
		s.cache.Release(key)
	}
	return body, ok
}
