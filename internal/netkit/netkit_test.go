package netkit

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/runtime"
)

// unavailable is the shed response the plane tests configure: a 503
// announcing the close, as the HTTP servers send.
var unavailable = []byte("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")

// shedRecorder counts ConnShed events delivered through the Observer
// plane. Embedding a Gate (a full runtime.Observer) supplies the
// remaining plane methods, making this a runtime.ShedObserver.
type shedRecorder struct {
	*Gate
	mu    sync.Mutex
	sheds map[string]int
}

func newShedRecorder() *shedRecorder { return &shedRecorder{Gate: NewGate(0)} }

func (r *shedRecorder) ConnShed(server, reason string) {
	r.mu.Lock()
	if r.sheds == nil {
		r.sheds = make(map[string]int)
	}
	r.sheds[server+"/"+reason]++
	r.mu.Unlock()
}

func (r *shedRecorder) count(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sheds[key]
}

var _ runtime.ShedObserver = (*shedRecorder)(nil)

func startPlane(t *testing.T, cfg Config) (*Plane, func()) {
	t.Helper()
	p, err := Listen(cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := p.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return p, func() {
		cancel()
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shCancel()
		if err := p.Shutdown(shCtx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}
}

// TestPlaneAdmitsAndRecyclesConnections: admitted connections reach the
// Admit callback with working pooled reader state, across enough
// sequential connections to recycle the pools.
func TestPlaneAdmitsAndRecyclesConnections(t *testing.T) {
	p, stop := startPlane(t, Config{
		Admit: func(c *Conn) error {
			go func() {
				line, err := c.Reader().ReadString('\n')
				if err != nil {
					c.Close()
					return
				}
				fmt.Fprintf(c, "echo %s", line)
				c.Close()
			}()
			return nil
		},
	})
	defer stop()

	for i := 0; i < 50; i++ {
		conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "hello %d\n", i)
		out, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo hello %d\n", i); string(out) != want {
			t.Fatalf("conn %d: got %q, want %q", i, out, want)
		}
	}
	st := p.Stats()
	if st.Accepted != 50 || st.Admitted != 50 || st.Shed != 0 {
		t.Errorf("stats = %+v, want 50 accepted/admitted, 0 shed", st)
	}
	if st.Live != 0 {
		t.Errorf("live = %d after all connections closed", st.Live)
	}
}

// TestPlaneShedsOnMaxConns: with a live-connection cap, excess accepts
// are answered with the shed response, counted, and routed through the
// Observer plane.
func TestPlaneShedsOnMaxConns(t *testing.T) {
	rec := newShedRecorder()
	release := make(chan struct{})
	p, stop := startPlane(t, Config{
		Name:         "capped",
		MaxConns:     1,
		ShedResponse: unavailable,
		Observer:     rec,
		Admit: func(c *Conn) error {
			go func() {
				<-release
				c.Close()
			}()
			return nil
		},
	})
	defer stop()
	defer close(release)

	first, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	// Wait until the first connection is tracked before offering the
	// second (accept → admit is asynchronous to the dialer).
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Live < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first connection never tracked")
		}
		time.Sleep(time.Millisecond)
	}

	second, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := io.ReadAll(second)
	if err != nil {
		t.Fatalf("read shed response: %v", err)
	}
	if !strings.Contains(string(resp), "503") || !strings.Contains(string(resp), "Connection: close") {
		t.Errorf("shed response = %q, want 503 with Connection: close", resp)
	}
	if got := p.Stats().Shed; got != 1 {
		t.Errorf("shed count = %d, want 1", got)
	}
	if got := rec.count("capped/conn-limit"); got != 1 {
		t.Errorf("observer sheds = %d, want 1 (silent drop?)", got)
	}
}

// TestGateTripsOnWatermark: queue-depth samples above the watermark trip
// the gate; samples below clear it. The "steals" monotonic counter the
// steal engine reports through the same surface must be ignored.
func TestGateTripsOnWatermark(t *testing.T) {
	g := NewGate(10)
	if g.Overloaded() {
		t.Fatal("fresh gate overloaded")
	}
	g.QueueDepth(runtime.EventDriven, "events", 6)
	g.QueueDepth(runtime.EventDriven, "async", 4)
	if g.Overloaded() {
		t.Fatal("gate tripped at the watermark (must be strictly past)")
	}
	g.QueueDepth(runtime.EventDriven, "async", 5)
	if !g.Overloaded() {
		t.Fatal("gate did not trip past the watermark")
	}
	g.QueueDepth(runtime.WorkStealing, "steals", 1_000_000)
	g.QueueDepth(runtime.EventDriven, "events", 0)
	g.QueueDepth(runtime.EventDriven, "async", 0)
	if g.Overloaded() {
		t.Fatal("gate stuck overloaded (steals counter not excluded?)")
	}
}

// TestPlaneShedsWhileGateOverloaded: a tripped gate sheds fresh
// connections at accept.
func TestPlaneShedsWhileGateOverloaded(t *testing.T) {
	g := NewGate(1)
	admitted := make(chan *Conn, 16)
	p, stop := startPlane(t, Config{
		Gate:         g,
		ShedResponse: unavailable,
		Admit: func(c *Conn) error {
			admitted <- c
			return nil
		},
	})
	defer stop()
	defer func() {
		for {
			select {
			case c := <-admitted:
				c.Close()
			default:
				return
			}
		}
	}()

	g.QueueDepth(runtime.EventDriven, "events", 100) // trip it
	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := io.ReadAll(conn)
	if err != nil || !strings.Contains(string(resp), "503") {
		t.Fatalf("overloaded accept: resp %q err %v, want 503", resp, err)
	}

	g.QueueDepth(runtime.EventDriven, "events", 0) // clear it
	conn2, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	select {
	case c := <-admitted:
		c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("connection not admitted after gate cleared")
	}
}

// TestPlaneShutdownInterruptsBlockedReads: connections whose owners are
// blocked reading idle clients must be interrupted by Shutdown, so a
// graceful drain cannot hang on a silent keep-alive client.
func TestPlaneShutdownInterruptsBlockedReads(t *testing.T) {
	unblocked := make(chan error, 8)
	p, err := Listen(Config{
		Admit: func(c *Conn) error {
			go func() {
				_, err := c.Reader().ReadByte() // blocks: client never sends
				unblocked <- err
				c.Close()
			}()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}

	const n = 4
	conns := make([]net.Conn, n)
	for i := range conns {
		if conns[i], err = net.DialTimeout("tcp", p.Addr(), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Live < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections tracked", p.Stats().Live, n)
		}
		time.Sleep(time.Millisecond)
	}

	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := p.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-unblocked:
			if err == nil {
				t.Error("blocked read returned nil after interrupt")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked read never interrupted by Shutdown")
		}
	}
}

// TestTrackRefusedWhileClosing: an accept that races shutdown must not
// be admitted — track reports the closing state so the accept loop
// sheds it (counted, observed) instead of handing Admit a socket the
// sweep has already doomed.
func TestTrackRefusedWhileClosing(t *testing.T) {
	rec := newShedRecorder()
	p, err := Listen(Config{
		Name:     "closing",
		Observer: rec,
		Admit:    func(c *Conn) error { c.Close(); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), time.Second)
	defer shCancel()
	if err := p.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	defer cli.Close()
	c := newConn(p, srv)
	if p.track(c) {
		t.Fatal("track accepted a connection on a closing plane")
	}
	p.ShedConn(c, "closed")
	if got := p.Stats().Shed; got != 1 {
		t.Errorf("shed count = %d, want 1", got)
	}
	if got := rec.count("closing/closed"); got != 1 {
		t.Errorf("observer sheds = %d, want 1 (racing accept dropped silently)", got)
	}
}

// TestConnCloseIdempotent: double Close must not double-recycle pooled
// state (two goroutines would then share one Conn).
func TestConnCloseIdempotent(t *testing.T) {
	srv, cli := net.Pipe()
	defer cli.Close()
	c := newConn(nil, srv)
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
