package webserver

// Tests for the connection plane: Inject-driven admission under
// overload (503 sheds, Connection: close on keep-alive responses, shed
// events on the Observer plane) and graceful shutdown while keep-alive
// clients are mid-conversation on every engine.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
)

// TestOverloadShedsAndAnnouncesClose drives the admission gate directly
// (its queue-depth surface is public) and verifies the three overload
// behaviors: established keep-alive conversations get Connection: close,
// fresh connections get an explicit 503, and every shed is counted on
// the plane and routed through the Observer plane — nothing silent.
func TestOverloadShedsAndAnnouncesClose(t *testing.T) {
	files := loadgen.NewFileSet(1)
	tel := telemetry.New()
	srv, addr, stop := startServer(t, Config{
		Files:          files,
		Engine:         runtime.EventDriven,
		AdmitWatermark: 50,
		Telemetry:      tel,
	})
	defer stop()
	path := files.Path(0, 0, 1)

	// An established keep-alive conversation before overload.
	connA, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	brA := bufio.NewReader(connA)
	fmt.Fprintf(connA, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
	status, srvClose, _, err := readFullResponse(brA)
	if err != nil || status != 200 || srvClose {
		t.Fatalf("pre-overload request: status %d close %v err %v", status, srvClose, err)
	}

	// Trip the gate: a sampled backlog past the watermark. The fake
	// queue name never collides with the engine's own samples, so the
	// overload holds until cleared below.
	srv.Gate().QueueDepth(runtime.EventDriven, "test-backlog", 1000)
	if !srv.Gate().Overloaded() {
		t.Fatal("gate not overloaded after sample past watermark")
	}

	// The established conversation is shed gracefully: served, but with
	// the close announced so the client stops queueing load here.
	fmt.Fprintf(connA, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
	status, srvClose, _, err = readFullResponse(brA)
	if err != nil || status != 200 {
		t.Fatalf("overloaded keep-alive request: status %d err %v", status, err)
	}
	if !srvClose {
		t.Error("overloaded keep-alive response did not announce Connection: close")
	}
	connA.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := brA.ReadByte(); err != io.EOF {
		t.Errorf("connection still open after overload close (read err %v)", err)
	}

	// Fresh connections are answered 503 and closed. The 503 is a final
	// frame, so EOF follows it at once, though the plane holds the shed
	// connection open for its bounded drain.
	connB, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	brB := bufio.NewReader(connB)
	connB.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, srvClose, _, err = readFullResponse(brB)
	if err != nil || status != 503 || !srvClose {
		t.Errorf("shed response: status %d close %v err %v, want 503 with Connection: close", status, srvClose, err)
	}
	connB.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := brB.ReadByte(); err != io.EOF {
		t.Errorf("after the 503: read err %v, want EOF within 100ms", err)
	}

	// The shed is counted — on the plane and on the Observer plane.
	if got := srv.PlaneStats().Shed; got < 1 {
		t.Errorf("plane shed count = %d, want >= 1", got)
	}
	if got := shedCount(tel, "overload"); got < 1 {
		t.Errorf("observer sheds = %d, want >= 1 (shed dropped silently?)", got)
	}

	// Clearing the backlog restores admission.
	srv.Gate().QueueDepth(runtime.EventDriven, "test-backlog", 0)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Gate().Overloaded() {
		if time.Now().After(deadline) {
			t.Fatal("gate stuck overloaded after backlog cleared")
		}
		time.Sleep(time.Millisecond)
	}
	status, _ = get(t, addr, path)
	if status != 200 {
		t.Errorf("post-overload request: status %d", status)
	}
}

// TestShutdownWhileInjecting shuts the server down on every engine while
// keep-alive clients are mid-conversation — some actively issuing
// requests (their Complete nodes are re-injecting into a draining
// runtime), some idle (their ReadRequest flows are blocked on the
// socket). Shutdown must interrupt both kinds promptly, and the refused
// re-registrations must surface as counted sheds, not hangs.
func TestShutdownWhileInjecting(t *testing.T) {
	files := loadgen.NewFileSet(1)
	for _, kind := range []runtime.EngineKind{
		runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			srv, err := New(Config{
				Files:  files,
				Engine: kind,
				// Above the 7 conversations: on the thread pool each idle
				// keep-alive connection holds a worker inside read(2) for
				// the whole test, and the busy clients need workers of
				// their own.
				PoolSize:   8,
				ScriptWork: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := srv.Start(ctx); err != nil {
				t.Fatal(err)
			}
			addr := srv.Addr()

			// Busy clients: back-to-back mixed keep-alive requests until
			// the server goes away.
			var served atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
					if err != nil {
						return
					}
					defer conn.Close()
					conn.SetDeadline(time.Now().Add(20 * time.Second))
					br := bufio.NewReader(conn)
					for i := 0; ; i++ {
						if i%4 == 3 {
							_, err = fmt.Fprintf(conn, "GET /adrotate?u=%d&r=%d HTTP/1.1\r\nHost: t\r\n\r\n", id, i)
						} else {
							_, err = fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", files.Path(0, 0, i%9+1))
						}
						if err != nil {
							return
						}
						status, srvClose, _, err := readFullResponse(br)
						if err != nil || status != 200 {
							return // server shutting down
						}
						served.Add(1)
						if srvClose {
							return
						}
					}
				}(c)
			}
			// Idle clients: connected, never sending — their flows are
			// blocked in ReadRequest and only the plane's shutdown sweep
			// can release them.
			var idle []net.Conn
			for c := 0; c < 3; c++ {
				conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				idle = append(idle, conn)
			}
			defer func() {
				for _, c := range idle {
					c.Close()
				}
			}()

			// Let traffic ramp, then shut down mid-stream.
			deadline := time.Now().Add(5 * time.Second)
			for served.Load() < 8 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer shCancel()
			start := time.Now()
			if err := srv.Shutdown(shCtx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := srv.Wait(); err != nil && err != ctx.Err() {
				t.Errorf("Wait: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 8*time.Second {
				t.Errorf("shutdown took %v with clients mid-conversation", elapsed)
			}
			wg.Wait()

			// Every started flow reached a terminal: nothing leaked in
			// the drain.
			st := srv.Stats().Snapshot()
			if got := st.Completed + st.Errored + st.Dropped; got != st.Started {
				t.Errorf("terminals = %d, started = %d: flows lost in shutdown", got, st.Started)
			}
			if served.Load() == 0 {
				t.Error("no requests served before shutdown (test raced)")
			}
		})
	}
}

// TestFlowAccountingMatchesConversations pins the invariant bench/'s
// validity guard enforces (Completed == responses, Errored ==
// teardowns, no sheds) on every engine: each keep-alive response is one
// completed flow, and each client close ends one flow through the
// ReadRequest error route.
//
// The test waits for the counters before Shutdown on purpose. Complete
// re-injects the connection for its next request; a Shutdown racing
// that Reinject refuses it, and the connection is dropped and counted
// as a plane shed instead of reaching Discard (documented Reinject
// behaviour). Without the wait the steal engine lands there about 1 in
// 30 runs.
func TestFlowAccountingMatchesConversations(t *testing.T) {
	const conns, reqs = 3, 20
	files := loadgen.NewFileSet(1)
	for _, kind := range []runtime.EngineKind{
		runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			srv, err := New(Config{
				Files:    files,
				Engine:   kind,
				PoolSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := srv.Start(ctx); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
					if err != nil {
						t.Error(err)
						return
					}
					defer conn.Close()
					conn.SetDeadline(time.Now().Add(10 * time.Second))
					br := bufio.NewReader(conn)
					for i := 0; i < reqs; i++ {
						fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", files.Path(0, 0, i%9+1))
						status, srvClose, _, err := readFullResponse(br)
						if err != nil || status != 200 || srvClose {
							t.Errorf("request %d: status %d close %v err %v", i, status, srvClose, err)
							return
						}
					}
				}()
			}
			wg.Wait()

			deadline := time.Now().Add(5 * time.Second)
			for {
				st := srv.Stats().Snapshot()
				if st.Completed == conns*reqs && st.Errored == conns {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("flows never settled: completed %d errored %d", st.Completed, st.Errored)
				}
				time.Sleep(time.Millisecond)
			}
			shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer shCancel()
			if err := srv.Shutdown(shCtx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := srv.Wait(); err != nil && err != ctx.Err() {
				t.Errorf("Wait: %v", err)
			}

			st := srv.Stats().Snapshot()
			if st.Completed != conns*reqs || st.Errored != conns || st.Dropped != 0 {
				t.Errorf("completed/errored/dropped = %d/%d/%d, want %d/%d/0",
					st.Completed, st.Errored, st.Dropped, conns*reqs, conns)
			}
			if shed := srv.PlaneStats().Shed; shed != 0 {
				t.Errorf("plane shed %d, want 0", shed)
			}
		})
	}
}
