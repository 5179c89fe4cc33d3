// Package sedaweb is the staged event-driven comparison web server
// standing in for Haboob (the SEDA web server the paper benchmarks
// against in §4.2). Requests move through fixed stages — read, cache
// lookup, file read, send — each with a bounded event queue and its own
// small worker pool, the SEDA architecture. Under overload, queues fill
// and admission sheds connections, which is the behavior that costs
// Haboob throughput in Figure 3.
//
// Connections are accepted by the shared connection plane
// (internal/netkit); a full read queue refuses admission and the plane
// sheds with an explicit 503, and stage-to-stage overflows shed through
// the same plane — counted and routed to the Observer plane instead of
// silently closed.
package sedaweb

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
	// zero-window client fails the write and the shed is counted.
	WriteTimeout time.Duration
	// ListenShards, when > 1, opens that many SO_REUSEPORT accept
	// shards; platforms without SO_REUSEPORT fall back to one listener.
	ListenShards int
}

// event is the unit passed between stages: one connection awaiting its
// next action.
type event struct {
	conn   *netkit.Conn
	method string
	path   string
	query  string
	body   []byte
	keep   bool
	// resp is a fully rendered reply (dynamic pages, POSTs); static is a
	// bare static body sent zero-copy with the shared header blob.
	resp   []byte
	static []byte
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
		ListenShards: cfg.ListenShards,
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
	br := ev.conn.Reader()
	line, err := httpkit.ReadLine(br)
	if err != nil {
		ev.conn.Close()
		return
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 3 {
		ev.conn.Close()
		return
	}
	ev.method = fields[0]
	keep, contentLen, err := httpkit.ReadHeaders(br)
	if err != nil {
		ev.conn.Close()
		return
	}
	ev.keep = keep
	ev.body, err = httpkit.ReadBody(br, contentLen)
	if err != nil {
		ev.conn.Close()
		return
	}
	ev.path, ev.query = fields[1], ""
	if i := strings.IndexByte(ev.path, '?'); i >= 0 {
		ev.path, ev.query = ev.path[:i], ev.path[i+1:]
	}
	s.enqueue(s.lookQ, ev)
}

func (s *Server) lookupStage(ev *event) {
	// Dynamic work and POSTs skip the cache and run in the file/handler
	// stage's pool, like Haboob's dynamic-page stage.
	if ev.method == "POST" || strings.HasPrefix(ev.path, "/dynamic") || strings.HasPrefix(ev.path, "/adrotate") {
		s.enqueue(s.fileQ, ev)
		return
	}
	if body, ok := s.cache.Get(ev.path); ok {
		s.cache.Release(ev.path)
		ev.static = body
		s.enqueue(s.sendQ, ev)
		return
	}
	s.enqueue(s.fileQ, ev)
}

func (s *Server) fileStage(ev *event) {
	switch {
	case ev.method == "POST":
		ev.resp = httpkit.RenderPostConfirm(ev.path, len(ev.body))
	case strings.HasPrefix(ev.path, "/dynamic"), strings.HasPrefix(ev.path, "/adrotate"):
		buf := fscript.GetBuf()
		out, err := s.pages.RenderTo(buf.B, ev.path, ev.query, int64(s.cfg.ScriptWork))
		buf.B = out[:0]
		if err != nil {
			fscript.PutBuf(buf)
			ev.conn.Close()
			return
		}
		ev.resp = render(200, "OK", out)
		fscript.PutBuf(buf)
	default:
		body, ok := s.cfg.Files.Lookup(ev.path)
		if !ok {
			notFound := []byte("<html><body><h1>404 Not Found</h1></body></html>")
			_ = ev.conn.WriteVec(httpkit.StaticHeader(404, "Not Found", "text/html", len(notFound), true), notFound)
			ev.conn.Close()
			return
		}
		ev.static = body
		s.cache.Put(ev.path, ev.static)
		s.cache.Release(ev.path)
	}
	s.enqueue(s.sendQ, ev)
}

func (s *Server) sendStage(ev *event) {
	closing := !ev.keep || ev.conn.Served+1 >= s.cfg.MaxKeepAlive
	var err error
	if ev.static != nil {
		err = ev.conn.WriteVec(httpkit.StaticHeader(200, "OK", "text/html", len(ev.static), closing), ev.static)
	} else {
		resp := ev.resp
		if closing {
			resp = withClose(resp)
		}
		_, err = ev.conn.Write(resp)
	}
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.plane.CountShed("write-timeout")
		}
		ev.conn.Close()
		return
	}
	s.served.Add(1)
	ev.conn.Served++
	if closing {
		ev.conn.Close()
		return
	}
	ev.resp, ev.static = nil, nil
	s.enqueue(s.readQ, ev)
}

func render(code int, status string, body []byte) []byte {
	return httpkit.Render(code, status, "text/html", body)
}

// withClose announces the close on a connection's final response.
func withClose(resp []byte) []byte { return httpkit.WithCloseHeader(resp) }
