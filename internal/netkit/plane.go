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
	ln   net.Listener
	acc  acceptor

	// quit closes when shutdown begins, ending the accept loop's
	// backoff after a failed accept.
	quit chan struct{}

	accepted atomic.Uint64
	admitted atomic.Uint64
	shed     atomic.Uint64
	live     atomic.Int64

	// maxConns is the live-connection bound, initialized from
	// Config.MaxConns and retunable while the accept loop runs.
	maxConns atomic.Int64

	mu      sync.Mutex
	conns   map[*Conn]io.Closer // each live Conn's transport
	closing bool

	closeOnce  sync.Once
	acceptDone chan struct{}
}

// Listen opens the plane's listener; Start begins accepting.
func Listen(cfg Config) (*Plane, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = ln.Addr().String()
	}
	p := &Plane{cfg: cfg, name: name, ln: ln, quit: make(chan struct{}), conns: make(map[*Conn]io.Closer)}
	if err := p.acc.open(ln); err != nil {
		ln.Close()
		return nil, err
	}
	p.maxConns.Store(int64(cfg.MaxConns))
	return p, nil
}

// MaxConns returns the current live-connection bound (0 = unbounded).
func (p *Plane) MaxConns() int { return int(p.maxConns.Load()) }

// SetMaxConns retunes the live-connection bound; <= 0 removes it.
// Connections already admitted are never evicted — a lowered cap only
// sheds fresh accepts until attrition brings the live count under it.
func (p *Plane) SetMaxConns(n int) { p.maxConns.Store(int64(n)) }

// Addr returns the bound listen address.
func (p *Plane) Addr() string { return p.ln.Addr().String() }

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
	go p.acceptLoop()
	go func() {
		select {
		case <-ctx.Done():
			p.beginShutdown()
		case <-p.acceptDone:
		}
	}()
	return nil
}

// Backoff after a failed accept, as net/http's Serve does: the
// connection waits in the listen backlog while the process is out of
// descriptors or buffers (EMFILE, ENFILE, ENOBUFS), and the loop tries
// again instead of dying with the server still up.
const (
	acceptRetryMin = 5 * time.Millisecond
	acceptRetryMax = time.Second
)

func (p *Plane) acceptLoop() {
	defer close(p.acceptDone)
	var delay time.Duration
	for {
		c, err := p.acc.accept(p)
		if err != nil {
			delay = min(max(2*delay, acceptRetryMin), acceptRetryMax)
			t := time.NewTimer(delay)
			select {
			case <-p.quit: // the listener is closed
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		delay = 0
		p.accepted.Add(1)
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
			if err := p.admit(c); err != nil {
				p.ShedConn(c, "refused")
			}
		}
	}
}

// admit hands a tracked connection to Admit. It is counted admitted
// before the hand-over, because its owner may serve and close it before
// Admit returns; a refusal takes the count back before the caller
// counts the shed, so Admitted + Shed never exceeds the connections
// the plane was given.
func (p *Plane) admit(c *Conn) error {
	p.admitted.Add(1)
	err := p.cfg.Admit(c)
	if err != nil {
		p.admitted.Add(^uint64(0))
	}
	return err
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
	if err := p.admit(c); err != nil {
		p.dropConn(c, "refused")
		return err
	}
	return nil
}

// ShedConn sheds a connection the server cannot serve right now: the
// shed response (503 with Connection: close for the HTTP servers) is
// written, the connection closes, and the drop is counted and routed
// through the Observer plane — never a silent default-branch close. It
// counts once, under reason, even when the 503 itself times out. The
// count comes first: the 503 is a final frame, so its FIN leaves with
// it, and a client that has read EOF must find the shed counted.
func (p *Plane) ShedConn(c *Conn, reason string) {
	p.CountShed(reason)
	if p.cfg.ShedResponse != nil {
		c.FinalFrame()
		if _, err := c.write(p.cfg.ShedResponse); err == nil {
			// Closing off the accept goroutine: the drain below can wait
			// on the client, and sheds are exactly when accepts must not
			// stall.
			go drainAndClose(c)
			return
		}
	}
	c.Close()
}

// Bounds for draining a shed connection before closing it.
const (
	shedDrainLimit   = 64 << 10
	shedDrainTimeout = 500 * time.Millisecond
)

// drainAndClose consumes whatever request bytes the client of a shed
// connection already sent before closing it. Closing with unread bytes
// in the receive queue makes the kernel answer with RST, which can
// destroy the in-flight 503 on the client side — the shed would then
// surface as a read error and corrupt the very sheds-vs-errors split
// overload measurements depend on. The 503 is a final frame, so its FIN
// has already told the client the response is complete; the bounded
// drain absorbs its pipeline until it hangs up.
func drainAndClose(c *Conn) {
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
	p.conns[c] = c.transport()
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
		close(p.quit)
		p.ln.Close()
		p.acc.close()
		p.mu.Lock()
		p.closing = true
		ts := make([]io.Closer, 0, len(p.conns))
		for _, t := range p.conns {
			ts = append(ts, t)
		}
		p.mu.Unlock()
		for _, t := range ts {
			t.Close()
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
