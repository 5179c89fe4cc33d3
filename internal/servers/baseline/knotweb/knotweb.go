// Package knotweb is the hand-written comparison web server standing in
// for knot (the Capriccio threaded web server the paper benchmarks
// against in §4.2). One goroutine per connection serves HTTP/1.1
// keep-alive requests from the same SPECweb-like corpus, with a
// mutex-guarded LFU response cache — the conventional design Flux is
// measured against. Dynamic pages (/dynamic, /adrotate) and form POSTs
// run through the same FScript interpreter as the Flux web server, so
// the mixed-workload comparison measures server architecture, not
// dynamic-content engines.
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
	"errors"
	"fmt"
	"net"
	"strings"
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
	// zero-window client fails the write and the shed is counted.
	WriteTimeout time.Duration
	// ListenShards, when > 1, opens that many SO_REUSEPORT accept
	// shards; platforms without SO_REUSEPORT fall back to one listener.
	ListenShards int
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
		ListenShards: cfg.ListenShards,
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

func (s *Server) serveConn(c *netkit.Conn) {
	defer c.Close()
	br := c.Reader()
	for c.Served < s.cfg.MaxKeepAlive {
		line, err := httpkit.ReadLine(br)
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) != 3 {
			return
		}
		method := fields[0]
		keepAlive, contentLen, err := httpkit.ReadHeaders(br)
		if err != nil {
			return
		}
		body, err := httpkit.ReadBody(br, contentLen)
		if err != nil {
			return
		}
		path, query := fields[1], ""
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path, query = path[:i], path[i+1:]
		}
		closing := !keepAlive || c.Served+1 >= s.cfg.MaxKeepAlive

		// Static bodies take the zero-copy path (cached bare body, shared
		// header blob, one writev); rendered pages keep the contiguous
		// write — the same split as the Flux web server, so the baseline
		// comparison measures architecture, not write syscalls.
		var resp, staticBody []byte
		switch {
		case method == "POST":
			resp = httpkit.RenderPostConfirm(path, len(body))
		case strings.HasPrefix(path, "/dynamic"), strings.HasPrefix(path, "/adrotate"):
			buf := fscript.GetBuf()
			out, err := s.pages.RenderTo(buf.B, path, query, int64(s.cfg.ScriptWork))
			buf.B = out[:0]
			if err != nil {
				fscript.PutBuf(buf)
				return
			}
			resp = render(200, "OK", out)
			fscript.PutBuf(buf)
		default:
			var ok bool
			if staticBody, ok = s.cache.Get(path); ok {
				s.cache.Release(path)
			} else {
				fileBody, found := s.cfg.Files.Lookup(path)
				if !found {
					notFound := []byte("<html><body><h1>404 Not Found</h1></body></html>")
					_ = c.WriteVec(httpkit.StaticHeader(404, "Not Found", "text/html", len(notFound), true), notFound)
					return
				}
				staticBody = fileBody
				s.cache.Put(path, staticBody)
				s.cache.Release(path)
			}
		}
		if staticBody != nil {
			err = c.WriteVec(httpkit.StaticHeader(200, "OK", "text/html", len(staticBody), closing), staticBody)
		} else {
			if closing {
				resp = withClose(resp)
			}
			_, err = c.Write(resp)
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.plane.CountShed("write-timeout")
			}
			return
		}
		s.served.Add(1)
		c.Served++
		if closing {
			return
		}
	}
}

func render(code int, status string, body []byte) []byte {
	return httpkit.Render(code, status, "text/html", body)
}

// withClose announces the close on a connection's final response.
func withClose(resp []byte) []byte { return httpkit.WithCloseHeader(resp) }
