package webserver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
)

// readFullResponse consumes one HTTP/1.1 response from br, returning
// the status code, whether the server announced Connection: close, and
// the body.
func readFullResponse(br *bufio.Reader) (status int, srvClose bool, body string, err error) {
	statusLine, err := br.ReadString('\n')
	if err != nil {
		return 0, false, "", err
	}
	fields := strings.Fields(statusLine)
	if len(fields) < 2 {
		return 0, false, "", fmt.Errorf("bad status line %q", statusLine)
	}
	status, _ = strconv.Atoi(fields[1])
	clen := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, false, "", err
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if strings.EqualFold(k, "Content-Length") {
			clen, _ = strconv.Atoi(v)
		}
		if strings.EqualFold(k, "Connection") && strings.EqualFold(v, "close") {
			srvClose = true
		}
	}
	if clen < 0 {
		return 0, false, "", fmt.Errorf("response without Content-Length")
	}
	buf := make([]byte, clen)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, false, "", err
	}
	return status, srvClose, string(buf), nil
}

// TestKeepAlivePipelinedSequence issues N sequential requests on one
// connection across every engine, mixing static, dynamic, and POST, and
// verifies each response arrives in order with correct framing.
func TestKeepAlivePipelinedSequence(t *testing.T) {
	files := loadgen.NewFileSet(1)
	for _, kind := range []runtime.EngineKind{
		runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven, runtime.WorkStealing,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			_, addr, stop := startServer(t, Config{
				Files:    files,
				Engine:   kind,
				PoolSize: 4,
			})
			defer stop()

			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)

			for i := 1; i <= 9; i++ {
				var wantBody string
				switch i % 3 {
				case 0: // POST
					payload := fmt.Sprintf("seq=%d", i)
					fmt.Fprintf(conn, "POST /post HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s",
						len(payload), payload)
					wantBody = fmt.Sprintf("received %d bytes", len(payload))
				case 1: // static GET
					path := files.Path(0, 0, i%9+1)
					fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
					want, _ := files.Lookup(path)
					wantBody = string(want)
				case 2: // dynamic GET
					fmt.Fprintf(conn, "GET /adrotate?u=7&r=%d HTTP/1.1\r\nHost: t\r\n\r\n", i)
					wantBody = "ad="
				}
				status, srvClose, body, err := readFullResponse(br)
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if status != 200 {
					t.Fatalf("request %d: status %d", i, status)
				}
				if srvClose {
					t.Fatalf("request %d: unexpected Connection: close", i)
				}
				if !strings.Contains(body, wantBody) {
					t.Fatalf("request %d: body %q missing %q", i, truncate(body), wantBody)
				}
			}
		})
	}
}

func truncate(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

// TestConnectionCloseHonoredMidStream sends several keep-alive requests
// and then one with Connection: close: the server must announce the
// close on that response and end the conversation there.
func TestConnectionCloseHonoredMidStream(t *testing.T) {
	files := loadgen.NewFileSet(1)
	_, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	path := files.Path(0, 0, 1)

	for i := 0; i < 2; i++ {
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
		status, srvClose, _, err := readFullResponse(br)
		if err != nil || status != 200 {
			t.Fatalf("request %d: status %d err %v", i, status, err)
		}
		if srvClose {
			t.Fatalf("request %d: premature Connection: close", i)
		}
	}
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", path)
	status, srvClose, _, err := readFullResponse(br)
	if err != nil || status != 200 {
		t.Fatalf("final request: status %d err %v", status, err)
	}
	if !srvClose {
		t.Error("final response did not announce Connection: close")
	}
	// The connection must actually be closed: the next read sees EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("connection still open after Connection: close (read err %v)", err)
	}
}

// TestMaxKeepAliveCapEnforced configures a small per-connection request
// cap and verifies the server announces the close on the capped
// response and then hangs up.
func TestMaxKeepAliveCapEnforced(t *testing.T) {
	const maxReq = 3
	files := loadgen.NewFileSet(1)
	_, addr, stop := startServer(t, Config{
		Files:        files,
		Engine:       runtime.ThreadPool,
		PoolSize:     4,
		MaxKeepAlive: maxReq,
	})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	path := files.Path(0, 0, 1)

	for i := 1; i <= maxReq; i++ {
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
		status, srvClose, _, err := readFullResponse(br)
		if err != nil || status != 200 {
			t.Fatalf("request %d: status %d err %v", i, status, err)
		}
		if i < maxReq && srvClose {
			t.Fatalf("request %d: close announced before the cap", i)
		}
		if i == maxReq && !srvClose {
			t.Errorf("request %d: cap reached but close not announced", i)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("connection still open past MaxKeepAlive (read err %v)", err)
	}
}

// TestStealEngineKeepAliveReregistrationStress hammers the steal engine
// with concurrent keep-alive conversations. Every Complete re-registers
// its connection with the Listen source, so the sharded sources,
// injection queue, and deques all churn at once; run under -race (the
// CI race job includes this package) it is the re-registration data-race
// probe the engine's own microtests cannot provide.
func TestStealEngineKeepAliveReregistrationStress(t *testing.T) {
	files := loadgen.NewFileSet(1)
	_, addr, stop := startServer(t, Config{
		Files:      files,
		Engine:     runtime.WorkStealing,
		ScriptWork: 50, // keep dynamic requests cheap under -race
	})
	defer stop()

	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for i := 0; i < perClient; i++ {
				var err error
				if i%5 == 4 {
					_, err = fmt.Fprintf(conn, "GET /dynamic?n=50 HTTP/1.1\r\nHost: t\r\n\r\n")
				} else {
					_, err = fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", files.Path(0, 0, i%9+1))
				}
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", id, i, err)
					return
				}
				status, srvClose, _, err := readFullResponse(br)
				if err != nil || status != 200 {
					errs <- fmt.Errorf("client %d request %d: status %d err %v", id, i, status, err)
					return
				}
				if srvClose {
					errs <- fmt.Errorf("client %d request %d: premature close", id, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
