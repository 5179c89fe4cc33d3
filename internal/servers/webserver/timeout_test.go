package webserver

// Tests for the fault-hardening deadlines: a client that dials and
// trickles (or stalls) its request head must be disconnected and
// counted, not left pinning a worker — and the SLO controller must be
// wired end to end when a TargetP95 is configured.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
)

// waitClosed reads until the server closes the connection, failing the
// test if it stays open past the deadline.
func waitClosed(t *testing.T, conn net.Conn, within time.Duration) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(within))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server did not close the connection within %v: %v", within, err)
	}
}

// shedCount reads the sheds the telemetry plane counted for the web
// server under reason.
func shedCount(tel *telemetry.Telemetry, reason string) uint64 {
	for _, sh := range tel.Snapshot().Sheds {
		if sh.Server == "webserver" && sh.Reason == reason {
			return sh.Count
		}
	}
	return 0
}

// waitShed polls until the telemetry plane has counted a shed under
// reason.
func waitShed(t *testing.T, tel *telemetry.Telemetry, reason string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if shedCount(tel, reason) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no webserver shed counted under %q", reason)
}

// streamMax is the largest sample in the window of one queue-depth
// stream.
func streamMax(tel *telemetry.Telemetry, kind runtime.EngineKind, queue string) int64 {
	var max int64
	for _, ss := range tel.Snapshot().Streams {
		if ss.Engine != kind.String() || ss.Queue != queue {
			continue
		}
		for _, smp := range ss.Samples {
			if smp.V > max {
				max = smp.V
			}
		}
	}
	return max
}

// TestSlowLorisHeaderTimeout holds a half-written request line open.
// The header deadline must pop, the connection must be closed, and the
// shed must be counted under webserver/timeout — then the server must
// still serve well-behaved clients.
func TestSlowLorisHeaderTimeout(t *testing.T) {
	files := loadgen.NewFileSet(1)
	tel := telemetry.New()
	_, addr, stop := startServer(t, Config{
		Files:         files,
		Engine:        runtime.ThreadPerFlow,
		HeaderTimeout: 150 * time.Millisecond,
		Telemetry:     tel,
	})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, never finished: the loris.
	if _, err := fmt.Fprintf(conn, "GET /dir00000/cla"); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, conn, 5*time.Second)
	waitShed(t, tel, "timeout")

	// The worker the loris would have pinned is free to serve.
	if status, _ := get(t, addr, files.Path(0, 0, 1)); status != 200 {
		t.Errorf("post-loris request: status = %d", status)
	}
}

// TestKeepAliveIdleTimeout completes one keep-alive request, then goes
// silent. The idle deadline must reap the dead conversation and count
// it — distinct from the client hanging up (an un-counted Discard).
func TestKeepAliveIdleTimeout(t *testing.T) {
	files := loadgen.NewFileSet(1)
	tel := telemetry.New()
	_, addr, stop := startServer(t, Config{
		Files:       files,
		Engine:      runtime.ThreadPerFlow,
		IdleTimeout: 150 * time.Millisecond,
		Telemetry:   tel,
	})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", files.Path(0, 0, 1))
	status, srvClose, _, err := readFullResponse(br)
	if err != nil || status != 200 || srvClose {
		t.Fatalf("first request: status %d close %v err %v", status, srvClose, err)
	}

	// Silence. The server, not the test, ends the conversation.
	waitClosed(t, conn, 5*time.Second)
	waitShed(t, tel, "timeout")
}

// TestHeaderDeadlineEndsWithItsRead: a header deadline and no idle
// deadline. Deadlines are re-armed before each read, never cleared after
// one, so the fresh connection's header deadline must not survive into
// the idle wait for the second request.
func TestHeaderDeadlineEndsWithItsRead(t *testing.T) {
	files := loadgen.NewFileSet(1)
	tel := telemetry.New()
	_, addr, stop := startServer(t, Config{
		Files:         files,
		Engine:        runtime.ThreadPool,
		HeaderTimeout: 100 * time.Millisecond,
		Telemetry:     tel,
	})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		if i == 1 {
			time.Sleep(250 * time.Millisecond) // idle past the header deadline
		}
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", files.Path(0, 0, 1))
		status, srvClose, _, err := readFullResponse(br)
		if err != nil || status != 200 || srvClose {
			t.Fatalf("request %d: status %d close %v err %v", i, status, srvClose, err)
		}
	}
	if n := shedCount(tel, "timeout"); n != 0 {
		t.Errorf("%d timeout sheds on a conversation within its deadlines", n)
	}
}

// TestAdaptiveControllerWiring pins both admission shapes of the
// server. With no AdmitWatermark and no TargetP95 (the benchmark
// child's shape) there is no gate, no controller and no conn cap. With
// a TargetP95 the control loop is actually closed: a gate exists at the
// default starting watermark, the plane's conn cap tracks 2× it, the
// trajectory streams reach the configured observer, and requests are
// served normally underneath.
func TestAdaptiveControllerWiring(t *testing.T) {
	t.Run("ZeroConfig", func(t *testing.T) {
		files := loadgen.NewFileSet(1)
		srv, addr, stop := startServer(t, Config{
			Files:     files,
			Engine:    runtime.ThreadPool,
			PoolSize:  4,
			Telemetry: telemetry.New(),
		})
		defer stop()
		if srv.Gate() != nil {
			t.Error("gate without AdmitWatermark or TargetP95")
		}
		if srv.Controller() != nil {
			t.Error("controller without TargetP95")
		}
		if cap := srv.cp.Plane().MaxConns(); cap != 0 {
			t.Errorf("conn cap = %d, want 0 (unbounded)", cap)
		}
		if status, _ := get(t, addr, files.Path(0, 0, 1)); status != 200 {
			t.Fatalf("status = %d", status)
		}
	})

	t.Run("TargetP95", func(t *testing.T) {
		files := loadgen.NewFileSet(1)
		tel := telemetry.New()
		srv, addr, stop := startServer(t, Config{
			Files:     files,
			Engine:    runtime.EventDriven,
			TargetP95: 30 * time.Millisecond,
			Telemetry: tel,
		})
		defer stop()

		if srv.Controller() == nil {
			t.Fatal("no controller with TargetP95 set")
		}
		if srv.Gate() == nil {
			t.Fatal("no gate with TargetP95 set")
		}
		if wm := srv.Gate().Watermark(); wm != 64 {
			t.Errorf("initial watermark = %d, want the default 64", wm)
		}
		if cap, wm := srv.cp.Plane().MaxConns(), srv.Gate().Watermark(); cap != 2*wm {
			t.Errorf("conn cap = %d, want 2×watermark = %d", cap, 2*wm)
		}

		if status, _ := get(t, addr, files.Path(0, 0, 1)); status != 200 {
			t.Fatalf("status = %d", status)
		}

		// Within a couple of control intervals the trajectory streams land
		// on the telemetry plane's queue-depth surface.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if streamMax(tel, runtime.EventDriven, runtime.CtrlWatermark) >= 64 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("no %s trajectory reached the telemetry plane (max=%d)",
			runtime.CtrlWatermark, streamMax(tel, runtime.EventDriven, runtime.CtrlWatermark))
	})
}
