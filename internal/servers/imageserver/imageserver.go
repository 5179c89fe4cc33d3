// Package imageserver is the paper's running example (§2, Figure 2): an
// HTTP image-compression server that stores images as PPM, compresses
// requested scales to JPEG on demand, and caches recent compressions in
// an LFU cache with reference counts guarded by a Flux atomicity
// constraint.
//
// The Flux program below is Figure 2 verbatim (modulo the conn type
// standing in for the int socket). The paper's five stock photographs
// are replaced by synthetic PPM images; a calibration knob adds CPU work
// to Compress so the per-request cost can be set to match the paper's
// ~0.5 s/image compression (scaled down for test budgets) — the
// service-time distribution is what the Figure 6 prediction experiment
// depends on.
package imageserver

import (
	"bytes"
	"context"
	"fmt"
	"image/jpeg"
	"strconv"
	"strings"
	"time"

	"github.com/flux-lang/flux/internal/core"
	"github.com/flux-lang/flux/internal/lang/parser"
	"github.com/flux-lang/flux/internal/lfu"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/ppm"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/telemetry"
)

// FluxSource is Figure 2 of the paper.
const FluxSource = `
// concrete node signatures
Listen () => (conn socket);
ReadRequest (conn socket) => (conn socket, bool close, image_tag *request);
CheckCache (conn socket, bool close, image_tag *request)
  => (conn socket, bool close, image_tag *request);
ReadInFromDisk (conn socket, bool close, image_tag *request)
  => (conn socket, bool close, image_tag *request, rgb *rgb_data);
Compress (conn socket, bool close, image_tag *request, rgb *rgb_data)
  => (conn socket, bool close, image_tag *request);
StoreInCache (conn socket, bool close, image_tag *request)
  => (conn socket, bool close, image_tag *request);
Write (conn socket, bool close, image_tag *request)
  => (conn socket, bool close, image_tag *request);
Complete (conn socket, bool close, image_tag *request) => ();
FourOhFour (conn socket, bool close, image_tag *request) => ();

// source node
source Listen => Image;

// abstract node
Image = ReadRequest -> CheckCache -> Handler -> Write -> Complete;

// predicate type & dispatch
typedef hit TestInCache;
Handler:[_, _, hit] = ;
Handler:[_, _, _] = ReadInFromDisk -> Compress -> StoreInCache;

// error handler
handle error ReadInFromDisk => FourOhFour;

// atomicity constraints
atomic CheckCache:{cache};
atomic StoreInCache:{cache};
atomic Complete:{cache};
`

// Tag is the image_tag struct of Figure 2: the parsed request plus the
// cache interaction state.
type Tag struct {
	Name  string // image name, e.g. "img3"
	Scale int    // 1..8, meaning Scale/8 of full size
	key   string
	hit   bool
	jpeg  []byte
	// stored records that this flow inserted the entry (so Complete
	// releases exactly the references this flow took).
	stored bool
}

// Config tunes the server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Images is the library size (default 5, the paper's count).
	Images int
	// Width, Height are full-size image dimensions (default 256x192;
	// the paper's photos were larger, the knob below calibrates cost).
	Width, Height int
	// CacheBytes bounds the compression cache (default 32 MB).
	CacheBytes int64
	// CompressWork adds CPU spin to Compress to calibrate per-request
	// cost (the paper's compression averaged 0.5 s; benchmarks here use
	// milliseconds). Zero means JPEG encoding cost only.
	CompressWork time.Duration
	// Engine, PoolSize, SourceTimeout configure the runtime.
	Engine        runtime.EngineKind
	PoolSize      int
	SourceTimeout time.Duration
	// Telemetry, when non-nil, is the server's observer: flow terminals
	// by path (the §5.2 profile), node latencies, queue depths, and the
	// connection plane's sheds and admission counters.
	Telemetry *telemetry.Telemetry
	// AdmitWatermark, when > 0, sheds fresh connections with a 503 once
	// the engine's sampled queue depths sum past it. 0 admits
	// unboundedly.
	AdmitWatermark int
	// MaxConns, when > 0, caps live connections; accepts beyond it are
	// shed with a 503.
	MaxConns int
	// WriteTimeout, when > 0, bounds every response write; a dead or
	// zero-window client fails the write, the connection is torn down,
	// and the plane counts the shed on the Observer plane.
	WriteTimeout time.Duration
}

// Server is a runnable Flux image server, driven through the runtime's
// lifecycle: Start, Shutdown, Wait — or Run. Connections are accepted
// and admitted by the shared connection plane (internal/netkit),
// entering the graph exclusively through the runtime's external-
// admission path.
type Server struct {
	cfg     Config
	prog    *core.Program
	rt      *runtime.Server
	cp      *netkit.FluxPlane
	cache   *lfu.Cache
	library map[string]*ppm.Image
}

// New compiles Figure 2, synthesizes the image library, and opens the
// listener.
func New(cfg Config) (*Server, error) {
	if cfg.Images <= 0 {
		cfg.Images = 5
	}
	if cfg.Width <= 0 {
		cfg.Width = 256
	}
	if cfg.Height <= 0 {
		cfg.Height = 192
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 32 << 20
	}

	astProg, err := parser.Parse("imageserver.flux", FluxSource)
	if err != nil {
		return nil, fmt.Errorf("imageserver: parse: %w", err)
	}
	prog, err := core.Build(astProg)
	if err != nil {
		return nil, fmt.Errorf("imageserver: compile: %w", err)
	}

	s := &Server{
		cfg:     cfg,
		prog:    prog,
		cache:   lfu.New(cfg.CacheBytes),
		library: make(map[string]*ppm.Image, cfg.Images),
	}
	for i := 0; i < cfg.Images; i++ {
		s.library[fmt.Sprintf("img%d", i)] = ppm.Synthetic(cfg.Width, cfg.Height, int64(i+1))
	}

	b := runtime.NewBindings().
		BindSource("Listen", s.listen).
		BindNode("ReadRequest", s.readRequest).
		BindNode("CheckCache", s.checkCache).
		BindNode("ReadInFromDisk", s.readInFromDisk).
		BindNode("Compress", s.compress).
		BindNode("StoreInCache", s.storeInCache).
		BindNode("Write", s.write).
		BindNode("Complete", s.complete).
		BindNode("FourOhFour", s.fourOhFour).
		BindPredicate("TestInCache", func(v any) bool { return v.(*Tag).hit }).
		MarkBlocking("ReadRequest", "Write")

	gate, obs := netkit.NewGateObserver(cfg.AdmitWatermark, cfg.Telemetry.Observer())
	rt, err := runtime.New(prog, b,
		runtime.WithEngine(cfg.Engine),
		runtime.WithPoolSize(cfg.PoolSize),
		runtime.WithSourceTimeout(cfg.SourceTimeout),
		runtime.WithObserver(obs),
		runtime.WithQueueSampleInterval(netkit.SamplePeriod(cfg.AdmitWatermark)),
		// Admission is external: the connection plane injects every flow.
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
		Name:         "imageserver",
	})
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		pl := s.cp.Plane()
		cfg.Telemetry.RegisterConns("imageserver", func() telemetry.ConnStats {
			st := pl.Stats()
			return telemetry.ConnStats{Accepted: st.Accepted, Admitted: st.Admitted, Shed: st.Shed, Live: st.Live}
		})
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.cp.Addr() }

// Program exposes the compiled program.
func (s *Server) Program() *core.Program { return s.prog }

// Stats exposes the runtime counters.
func (s *Server) Stats() *runtime.Stats { return s.rt.Stats() }

// CacheStats exposes hit/miss/eviction counters.
func (s *Server) CacheStats() (hits, misses, evictions uint64) { return s.cache.Stats() }

// Start launches the Flux runtime and the connection plane's accept
// loop; the server then serves until the context is cancelled or
// Shutdown is called.
func (s *Server) Start(ctx context.Context) error { return s.cp.Start(ctx) }

// Shutdown gracefully stops the server: the plane stops accepting and
// interrupts live connections, then the Flux runtime stops admitting
// and in-flight requests drain until their terminals or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.cp.Shutdown(ctx) }

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
// and admission (every flow enters through Inject), so the source
// retires immediately; the runtime's keep-alive mode holds the server
// open.
func (s *Server) listen(fl *runtime.Flow) (runtime.Record, error) {
	return nil, runtime.ErrStop
}

// readRequest parses "GET /<name>/<scale> HTTP/1.1": one request per
// connection (close=true always, the image protocol is single-shot).
// The connection's buffered reader is pooled plane state, not a fresh
// allocation per request.
func (s *Server) readRequest(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	br := c.Reader()
	line, err := br.ReadString('\n')
	if err != nil {
		c.Close()
		return nil, err
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 2 {
		c.Close()
		return nil, fmt.Errorf("imageserver: malformed request %q", line)
	}
	// Drain headers until the blank line.
	for {
		h, err := br.ReadString('\n')
		if err != nil || strings.TrimSpace(h) == "" {
			break
		}
	}
	parts := strings.Split(strings.TrimPrefix(fields[1], "/"), "/")
	tag := &Tag{Scale: 8}
	if len(parts) >= 1 {
		tag.Name = parts[0]
	}
	if len(parts) >= 2 {
		if sc, err := strconv.Atoi(parts[1]); err == nil && sc >= 1 && sc <= 8 {
			tag.Scale = sc
		}
	}
	tag.key = fmt.Sprintf("%s@%d", tag.Name, tag.Scale)
	return runtime.Record{c, true, tag}, nil
}

// checkCache increments the cached item's reference count on a hit
// (§2.5: "CheckCache, which increments a reference count").
func (s *Server) checkCache(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tag := in[2].(*Tag)
	if data, ok := s.cache.Get(tag.key); ok {
		tag.hit = true
		tag.jpeg = data
	}
	return in, nil
}

// readInFromDisk fetches the stored PPM; a missing image is the error
// the FourOhFour handler catches.
func (s *Server) readInFromDisk(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tag := in[2].(*Tag)
	img, ok := s.library[tag.Name]
	if !ok {
		return nil, fmt.Errorf("imageserver: no such image %q", tag.Name)
	}
	// The library stores PPM; decoding is part of the read, producing
	// the rgb_data the signature declares.
	return runtime.Record{in[0], in[1], tag, img}, nil
}

// compress scales and JPEG-encodes, plus the calibration spin.
func (s *Server) compress(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tag := in[2].(*Tag)
	img := in[3].(*ppm.Image)
	w := s.cfg.Width * tag.Scale / 8
	h := s.cfg.Height * tag.Scale / 8
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	scaled := img.Scale(w, h)
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, scaled.ToRGBA(), &jpeg.Options{Quality: 80}); err != nil {
		return nil, err
	}
	if s.cfg.CompressWork > 0 {
		spin(s.cfg.CompressWork)
	}
	tag.jpeg = buf.Bytes()
	return runtime.Record{in[0], in[1], tag}, nil
}

// spin burns CPU for roughly d — compression stand-in work that loads a
// processor the way libjpeg does (a sleep would not).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(88172645463325252)
	for time.Now().Before(end) {
		for i := 0; i < 1024; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	_ = x
}

// storeInCache publishes the compression, evicting LFU zero-reference
// entries as needed (§2.5).
func (s *Server) storeInCache(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	tag := in[2].(*Tag)
	s.cache.Put(tag.key, tag.jpeg)
	tag.stored = true
	return in, nil
}

// write sends the JPEG response through the shared responder: the
// immutable header blob and the cached JPEG go out in one writev(2) —
// the response is never assembled into a contiguous buffer, so cache
// hits cost zero allocations here. Every image response is the
// connection's last, and says so.
func (s *Server) write(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	tag := in[2].(*Tag)
	if err := httpkit.Respond(c, 200, "OK", "image/jpeg", httpkit.Body{Bytes: tag.jpeg}, in[1].(bool)); err != nil {
		// Figure 2 declares no handler for Write, so the flow will
		// terminate here; release the flow's cache reference so a
		// vanished client cannot pin the entry. A popped write deadline
		// is the plane shedding a dead client, already counted.
		if tag.hit || tag.stored {
			s.cache.Release(tag.key)
		}
		c.Close()
		return nil, err
	}
	return in, nil
}

// complete decrements the reference count and closes (§2.5: "Complete,
// which decrements the cached image's reference count").
func (s *Server) complete(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	closeConn := in[1].(bool)
	tag := in[2].(*Tag)
	if tag.hit || tag.stored {
		s.cache.Release(tag.key)
	}
	if closeConn {
		c.Close()
	}
	return nil, nil
}

// imageNotFound is the body of the image server's 404.
var imageNotFound = []byte("image not found")

// fourOhFour answers a missing image and closes.
func (s *Server) fourOhFour(fl *runtime.Flow, in runtime.Record) (runtime.Record, error) {
	c := in[0].(*netkit.Conn)
	_ = httpkit.Respond(c, 404, "Not Found", "text/plain", httpkit.Body{Bytes: imageNotFound}, in[1].(bool))
	c.Close()
	return nil, nil
}
