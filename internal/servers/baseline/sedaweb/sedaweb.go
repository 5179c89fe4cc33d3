// Package sedaweb is the staged event-driven comparison web server
// standing in for Haboob (the SEDA web server the paper benchmarks
// against in §4.2). Requests move through fixed stages — read, cache
// lookup, file read, send — each with a bounded event queue and its own
// small worker pool, the SEDA architecture. Under overload, queues fill
// and admission sheds connections, which is the behavior that costs
// Haboob throughput in Figure 3.
//
// Requests are parsed and answered by the same HTTP layer (httpkit) as
// the Flux web server, so the comparison measures the staged
// architecture only.
//
// Connections are accepted by the shared connection plane
// (internal/netkit); a full read queue refuses admission and the plane
// sheds with an explicit 503, and stage-to-stage overflows shed through
// the same plane — counted and routed to the Observer plane instead of
// silently closed.
package sedaweb

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

// Config tunes the staged server.
type Config struct {
	Addr       string
	Files      *loadgen.FileSet
	CacheBytes int64
	// QueueDepth bounds each stage queue (default 512).
	QueueDepth int
	// WorkersPerStage sizes each stage pool (default 4).
	WorkersPerStage int
	// MaxKeepAlive bounds requests per connection (default 100).
	MaxKeepAlive int
	// ScriptWork is the loop bound handed to dynamic pages (default
	// 2000), matching the Flux web server's knob.
	ScriptWork int
	// WriteTimeout, when > 0, bounds every response write; a dead or
	// zero-window client fails the write and the plane counts the shed.
	WriteTimeout time.Duration
}

// event is the unit passed between stages: one connection, its current
// request, and the response body the stages chose for it. An event
// lives as long as its connection and parses every request into req, so
// the read stage sees a connection again only after its response is
// written.
type event struct {
	conn *netkit.Conn
	req  httpkit.Request
	body httpkit.Body
}

// Server is the staged baseline web server.
type Server struct {
	cfg   Config
	plane *netkit.Plane
	cache *lfu.Locked
	pages *fscript.BenchPages

	readQ  chan *event
	lookQ  chan *event
	fileQ  chan *event
	sendQ  chan *event
	served atomic.Uint64

	lifecycle.Runner
}

// New opens the listener and builds the stage queues.
func New(cfg Config) (*Server, error) {
	if cfg.Files == nil {
		cfg.Files = loadgen.NewFileSet(1)
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 512
	}
	if cfg.WorkersPerStage <= 0 {
		cfg.WorkersPerStage = 4
	}
	if cfg.MaxKeepAlive <= 0 {
		cfg.MaxKeepAlive = 100
	}
	if cfg.ScriptWork <= 0 {
		cfg.ScriptWork = 2000
	}
	pages, err := fscript.NewBenchPages()
	if err != nil {
		return nil, fmt.Errorf("sedaweb: dynamic templates: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		cache: lfu.NewLocked(cfg.CacheBytes),
		pages: pages,
		readQ: make(chan *event, cfg.QueueDepth),
		lookQ: make(chan *event, cfg.QueueDepth),
		fileQ: make(chan *event, cfg.QueueDepth),
		sendQ: make(chan *event, cfg.QueueDepth),
	}
	s.plane, err = netkit.Listen(netkit.Config{
		Addr:         cfg.Addr,
		Admit:        s.admit,
		ShedResponse: httpkit.Unavailable(),
		WriteTimeout: cfg.WriteTimeout,
		Name:         "sedaweb",
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.plane.Addr() }

// Served returns requests answered.
func (s *Server) Served() uint64 { return s.served.Load() }

// Shed returns the number of shed (overload-dropped) connections,
// admission refusals included — the plane counts every shed path.
func (s *Server) Shed() uint64 { return s.plane.Stats().Shed }

// PlaneStats exposes the connection plane's admission counters.
func (s *Server) PlaneStats() netkit.StatsSnapshot { return s.plane.Stats() }

// admit applies SEDA admission control at the front door: a full read
// queue refuses the connection, and the plane answers 503.
func (s *Server) admit(c *netkit.Conn) error {
	select {
	case s.readQ <- &event{conn: c}:
		return nil
	default:
		return fmt.Errorf("sedaweb: read queue full")
	}
}

// Run starts the stage pools and serves until the context is
// cancelled. Stage workers stop on cancellation; events in flight at
// shutdown are dropped, as a staged server's queues would be, and the
// plane closes their connections.
func (s *Server) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	stage := func(in chan *event, fn func(*event)) {
		for i := 0; i < s.cfg.WorkersPerStage; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case ev := <-in:
						fn(ev)
					case <-ctx.Done():
						return
					}
				}
			}()
		}
	}
	stage(s.readQ, s.readStage)
	stage(s.lookQ, s.lookupStage)
	stage(s.fileQ, s.fileStage)
	stage(s.sendQ, s.sendStage)

	if err := s.plane.Start(ctx); err != nil {
		return err
	}
	_ = s.plane.Wait()
	wg.Wait()
	return ctx.Err()
}

// enqueue applies SEDA admission control between stages: a full queue
// sheds the event through the plane (503, counted, observed).
func (s *Server) enqueue(q chan *event, ev *event) {
	select {
	case q <- ev:
	default:
		s.plane.ShedConn(ev.conn, "stage-full")
	}
}

func (s *Server) readStage(ev *event) {
	if err := httpkit.ReadRequest(ev.conn.Reader(), &ev.req); err != nil {
		ev.conn.Close()
		return
	}
	s.enqueue(s.lookQ, ev)
}

func (s *Server) lookupStage(ev *event) {
	// Dynamic work and POSTs skip the cache and run in the file/handler
	// stage's pool, like Haboob's dynamic-page stage.
	if !ev.req.Dynamic() {
		if body, ok := s.cache.Get(ev.req.Path); ok {
			s.cache.Release(ev.req.Path)
			ev.body.Bytes = body
			s.enqueue(s.sendQ, ev)
			return
		}
	}
	s.enqueue(s.fileQ, ev)
}

func (s *Server) fileStage(ev *event) {
	if ev.req.Dynamic() {
		body, err := httpkit.RenderDynamic(s.pages, &ev.req, int64(s.cfg.ScriptWork))
		if err != nil {
			ev.conn.Close()
			return
		}
		ev.body = body
	} else {
		// A large materialized file streams from disk and skips the cache.
		body, key, ok := httpkit.StaticBody(s.cfg.Files, ev.req.Path)
		if !ok {
			_ = httpkit.NotFound(ev.conn)
			ev.conn.Close()
			return
		}
		if body.Bytes != nil {
			s.cache.Put(key, body.Bytes)
			s.cache.Release(key)
		}
		ev.body = body
	}
	s.enqueue(s.sendQ, ev)
}

func (s *Server) sendStage(ev *event) {
	closing := !ev.req.KeepAlive || ev.conn.Served+1 >= s.cfg.MaxKeepAlive
	if err := httpkit.Respond(ev.conn, 200, "OK", "text/html", ev.body, closing); err != nil {
		ev.conn.Close()
		return
	}
	s.served.Add(1)
	ev.conn.Served++
	if closing {
		ev.conn.Close()
		return
	}
	ev.body = httpkit.Body{}
	s.enqueue(s.readQ, ev)
}
