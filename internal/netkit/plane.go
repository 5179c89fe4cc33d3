package netkit

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flux-lang/flux/internal/runtime"
)

// ErrNotStarted is returned by lifecycle methods before Start.
var ErrNotStarted = errors.New("netkit: plane not started")

// ErrPlaneClosed is returned by AdoptAndAdmit once shutdown has begun.
var ErrPlaneClosed = errors.New("netkit: plane closed")

// errReuseportUnsupported marks a platform (or forced-fallback test)
// where SO_REUSEPORT accept sharding is unavailable.
var errReuseportUnsupported = errors.New("netkit: SO_REUSEPORT unavailable")

// Config tunes a connection plane.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string

	// Admit consumes one admitted connection — injecting it into a Flux
	// graph through a runtime.SourceHandle, spawning a goroutine, or
	// enqueueing it on a stage. An error sheds the connection with the
	// ShedResponse ("refused"); Admit must otherwise take ownership.
	Admit func(*Conn) error

	// Gate, when non-nil, sheds fresh connections while the engine
	// backlog it watches exceeds its watermark ("overload").
	Gate *Gate

	// MaxConns, when > 0, bounds live connections; accepts beyond it are
	// shed ("conn-limit"). This is the admission bound for servers with
	// no sampled queues (one goroutine per connection). The bound is
	// adjustable while the plane runs (SetMaxConns): the SLO controller
	// moves it together with the gate watermark.
	MaxConns int

	// ShedResponse is written to a shed connection before closing — for
	// the HTTP servers, httpkit.Unavailable() (a 503 announcing
	// Connection: close). Nil sheds close silently.
	ShedResponse []byte

	// WriteTimeout, when > 0, bounds every write through an admitted
	// Conn (Write, WriteVec, SendFile): a dead or zero-window client
	// stalls the response for at most this long before the write fails,
	// the plane counts the shed ("write-timeout"), and the owner's error
	// path retires the connection. 0 preserves the historical
	// block-forever behavior.
	WriteTimeout time.Duration

	// ListenShards, when > 1, opens that many SO_REUSEPORT listeners on
	// the same address, each with its own accept loop — the kernel then
	// load-balances accepts across the shards, so connections stay
	// core-local from the accept queue onward (the per-core design the
	// steal engine has, extended to the socket layer). On platforms
	// without SO_REUSEPORT (or when the option is refused) the plane
	// falls back to a single listener and serves identically; Shards()
	// reports what was actually opened. 0 or 1 opens one listener.
	ListenShards int

	// Observer, when non-nil, receives a ConnShed event for every shed
	// (it also composes into the runtime observer plane; see
	// runtime.ShedObserver).
	Observer runtime.Observer

	// Name labels the plane's observer events (default the bound
	// address).
	Name string
}

// StatsSnapshot is a point-in-time copy of a plane's counters.
type StatsSnapshot struct {
	Accepted uint64 // connections returned by Accept
	Admitted uint64 // connections handed to Admit successfully
	Shed     uint64 // connections shed (overload, conn-limit, refused, closed)
	Live     int64  // connections currently tracked
}

// Plane is the shared listener/accept/admission implementation. It owns
// the listener and every live connection's membership: connections are
// tracked from admission until their Close, so shutdown can interrupt
// reads blocked on idle keep-alive clients (without this, a graceful
// drain would hang on the first silent client).
type Plane struct {
	cfg  Config
	name string
	// lns holds one listener per accept shard: a single listener in the
	// classic configuration, Config.ListenShards SO_REUSEPORT sockets on
	// the same address when sharding is enabled and the platform
	// supports it.
	lns []net.Listener

	accepted atomic.Uint64
	admitted atomic.Uint64
	shed     atomic.Uint64
	live     atomic.Int64

	// maxConns is the live-connection bound, initialized from
	// Config.MaxConns and retunable while the accept loop runs.
	maxConns atomic.Int64

	mu      sync.Mutex
	conns   map[*Conn]net.Conn
	closing bool

	closeOnce  sync.Once
	acceptDone chan struct{}
}

// Listen opens the plane's listener shards; Start begins accepting.
// With ListenShards > 1 it attempts SO_REUSEPORT sharding and falls
// back — silently, serving identically — to one listener when the
// platform or socket refuses the option.
func Listen(cfg Config) (*Plane, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	var lns []net.Listener
	if cfg.ListenShards > 1 {
		lns, _ = listenReuseport(cfg.Addr, cfg.ListenShards)
	}
	if len(lns) == 0 {
		ln, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
		lns = []net.Listener{ln}
	}
	name := cfg.Name
	if name == "" {
		name = lns[0].Addr().String()
	}
	p := &Plane{cfg: cfg, name: name, lns: lns, conns: make(map[*Conn]net.Conn)}
	p.maxConns.Store(int64(cfg.MaxConns))
	return p, nil
}

// Shards reports how many accept shards the plane actually opened (1
// when REUSEPORT sharding was not requested or not available).
func (p *Plane) Shards() int { return len(p.lns) }

// MaxConns returns the current live-connection bound (0 = unbounded).
func (p *Plane) MaxConns() int { return int(p.maxConns.Load()) }

// SetMaxConns retunes the live-connection bound; <= 0 removes it.
// Connections already admitted are never evicted — a lowered cap only
// sheds fresh accepts until attrition brings the live count under it.
func (p *Plane) SetMaxConns(n int) { p.maxConns.Store(int64(n)) }

// Addr returns the bound listen address (all shards share it).
func (p *Plane) Addr() string { return p.lns[0].Addr().String() }

// Stats returns the plane's counters.
func (p *Plane) Stats() StatsSnapshot {
	return StatsSnapshot{
		Accepted: p.accepted.Load(),
		Admitted: p.admitted.Load(),
		Shed:     p.shed.Load(),
		Live:     p.live.Load(),
	}
}

// Overloaded reports the gate's current overload state (false without a
// gate). Servers consult it per response to announce Connection: close
// while the engine backlog is past the watermark.
func (p *Plane) Overloaded() bool {
	return p.cfg.Gate != nil && p.cfg.Gate.Overloaded()
}

// Start launches the accept loop. The context governs the plane's
// lifetime: when it is cancelled the listener closes and every live
// connection is interrupted, exactly as Shutdown does.
func (p *Plane) Start(ctx context.Context) error {
	p.acceptDone = make(chan struct{})
	var loops sync.WaitGroup
	for _, ln := range p.lns {
		loops.Add(1)
		go func(ln net.Listener) {
			defer loops.Done()
			p.acceptLoop(ln)
		}(ln)
	}
	go func() {
		loops.Wait()
		close(p.acceptDone)
	}()
	go func() {
		select {
		case <-ctx.Done():
			p.beginShutdown()
		case <-p.acceptDone:
		}
	}()
	return nil
}

func (p *Plane) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		c := newConn(p, nc)
		maxConns := p.maxConns.Load()
		switch {
		case maxConns > 0 && p.live.Load() >= maxConns:
			p.ShedConn(c, "conn-limit")
		case p.cfg.Gate != nil && p.cfg.Gate.Overloaded():
			p.ShedConn(c, "overload")
		default:
			if !p.track(c) {
				// Accepted an instant after shutdown began: shed it
				// like any other refusal — counted and observed, never
				// handed to Admit on a doomed socket.
				p.ShedConn(c, "closed")
				continue
			}
			if err := p.cfg.Admit(c); err != nil {
				p.ShedConn(c, "refused")
			} else {
				p.admitted.Add(1)
			}
		}
	}
}

// AdoptAndAdmit wraps an outbound (dialed) connection in pooled Conn
// state, tracks it on the plane, and hands it to Admit — the symmetric
// entry point for connections the server initiated itself (a BitTorrent
// peer dialing into a swarm). Dialed connections bypass the gate and
// conn cap: the server chose to open them, so overload control belongs
// at the dial decision, not here. On any failure the connection is
// dropped and counted like a refused accept.
func (p *Plane) AdoptAndAdmit(nc net.Conn) error {
	c := newConn(p, nc)
	if !p.track(c) {
		p.dropConn(c, "closed")
		return ErrPlaneClosed
	}
	if err := p.cfg.Admit(c); err != nil {
		p.dropConn(c, "refused")
		return err
	}
	p.admitted.Add(1)
	return nil
}

// ShedConn sheds a connection the server cannot serve right now: the
// shed response (503 with Connection: close for the HTTP servers) is
// written, the connection closes, and the drop is counted and routed
// through the Observer plane — never a silent default-branch close. It
// counts once, under reason, even when the 503 itself times out.
func (p *Plane) ShedConn(c *Conn, reason string) {
	if p.cfg.ShedResponse != nil {
		if _, err := c.write(p.cfg.ShedResponse); err == nil {
			p.shed.Add(1)
			runtime.ConnShed(p.cfg.Observer, p.name, reason)
			// Closing off the accept goroutine: the drain below can wait
			// on the client, and sheds are exactly when accepts must not
			// stall.
			go drainAndClose(c)
			return
		}
	}
	p.dropConn(c, reason)
}

// Bounds for draining a shed connection before closing it.
const (
	shedDrainLimit   = 64 << 10
	shedDrainTimeout = 500 * time.Millisecond
)

// drainAndClose half-closes a shed connection and consumes whatever
// request bytes the client already sent before closing it. Closing
// with unread bytes in the receive queue makes the kernel answer with
// RST, which can destroy the in-flight 503 on the client side — the
// shed would then surface as a read error and corrupt the very
// sheds-vs-errors split overload measurements depend on. The FIN from
// CloseWrite tells the client the response is complete; the bounded
// drain absorbs its pipeline until it hangs up.
func drainAndClose(c *Conn) {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = c.nc.SetReadDeadline(time.Now().Add(shedDrainTimeout))
	_, _ = io.CopyN(io.Discard, c.nc, shedDrainLimit)
	c.Close()
}

// DropConn sheds a connection without writing a response — the
// between-requests variant (no request is outstanding to answer, e.g. a
// keep-alive re-registration refused by a draining engine).
func (p *Plane) DropConn(c *Conn, reason string) {
	p.dropConn(c, reason)
}

func (p *Plane) dropConn(c *Conn, reason string) {
	p.shed.Add(1)
	c.Close()
	runtime.ConnShed(p.cfg.Observer, p.name, reason)
}

// CountShed records a shed without touching any connection — for sheds
// whose close is owned by the flow that detected them (a read-deadline
// timeout still runs its error terminal, and Close pools the conn, so
// the plane must not race it with a second close). Writes through a
// Conn count their own timeouts.
func (p *Plane) CountShed(reason string) {
	p.shed.Add(1)
	runtime.ConnShed(p.cfg.Observer, p.name, reason)
}

// track registers a connection as live, reporting false when the plane
// is already closing — an accept racing shutdown must be shed by the
// caller, not admitted onto a plane whose sweep has already run.
func (p *Plane) track(c *Conn) bool {
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return false
	}
	p.conns[c] = c.nc
	p.mu.Unlock()
	p.live.Add(1)
	return true
}

// untrack releases a connection's membership (from Conn.Close).
func (p *Plane) untrack(c *Conn) {
	p.mu.Lock()
	_, ok := p.conns[c]
	if ok {
		delete(p.conns, c)
	}
	p.mu.Unlock()
	if ok {
		p.live.Add(-1)
	}
}

// beginShutdown closes the listener and interrupts every live
// connection: reads blocked on idle keep-alive clients fail, their
// flows run to their error terminals, and the runtime's drain can
// complete. Idempotent; owners still retire their Conn state through
// the usual Close.
func (p *Plane) beginShutdown() {
	p.closeOnce.Do(func() {
		for _, ln := range p.lns {
			ln.Close()
		}
		p.mu.Lock()
		p.closing = true
		ncs := make([]net.Conn, 0, len(p.conns))
		for _, nc := range p.conns {
			ncs = append(ncs, nc)
		}
		p.mu.Unlock()
		for _, nc := range ncs {
			nc.Close()
		}
	})
}

// Shutdown stops the plane: no more accepts, every live connection
// interrupted. It blocks until the accept loop retires or ctx expires.
// Safe to call concurrently, more than once, and even before Start (the
// listener still closes).
func (p *Plane) Shutdown(ctx context.Context) error {
	p.beginShutdown()
	if p.acceptDone == nil {
		return nil
	}
	select {
	case <-p.acceptDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wait blocks until the accept loop has retired.
func (p *Plane) Wait() error {
	if p.acceptDone == nil {
		return ErrNotStarted
	}
	<-p.acceptDone
	return nil
}
