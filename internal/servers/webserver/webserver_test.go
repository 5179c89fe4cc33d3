package webserver

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/telemetry"
)

// startServer boots a web server on an ephemeral port and returns its
// address plus a shutdown func.
func startServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Run(ctx)
	}()
	stop := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not stop")
		}
	}
	return s, s.Addr(), stop
}

// get fetches one URL over a fresh connection.
func get(t *testing.T, addr, path string) (status int, body string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", path)
	br := bufio.NewReader(conn)
	statusLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	fields := strings.Fields(statusLine)
	if len(fields) < 2 {
		t.Fatalf("bad status line %q", statusLine)
	}
	status, _ = strconv.Atoi(fields[1])
	clen := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("headers: %v", err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(k, "Content-Length") {
			clen, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	buf := make([]byte, clen)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Fatalf("body: %v", err)
	}
	return status, string(buf)
}

func TestServesStaticFile(t *testing.T) {
	files := loadgen.NewFileSet(1)
	_, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPerFlow})
	defer stop()

	path := files.Path(0, 1, 3)
	status, body := get(t, addr, path)
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	want, _ := files.Lookup(path)
	if body != string(want) {
		t.Errorf("body mismatch: got %d bytes, want %d", len(body), len(want))
	}
}

func TestNotFound(t *testing.T) {
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow})
	defer stop()
	status, body := get(t, addr, "/no/such/file")
	if status != 404 {
		t.Errorf("status = %d", status)
	}
	if !strings.Contains(body, "404") {
		t.Errorf("body = %q", body)
	}
}

func TestDynamicPage(t *testing.T) {
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow})
	defer stop()
	status, body := get(t, addr, "/dynamic?n=10")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	// sum of i*i % 97 for i=1..10 = 1+4+9+16+25+36+49+64+81+3 = 288.
	if !strings.Contains(body, "work=10") || !strings.Contains(body, "checksum=288") {
		t.Errorf("body = %q", body)
	}
}

// TestDynamicMixStaysCompiled is the fragment cache's precondition:
// mixed_openloop's dynamic mix — ad-rotation GETs, work pages and POSTs
// — is served entirely by the compiled pages, so neither the
// interpreter nor the fragment cache behind it is ever reached.
func TestDynamicMixStaysCompiled(t *testing.T) {
	srv, addr, stop := startServer(t, Config{Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()

	const rounds = 16
	for k := 0; k < rounds; k++ {
		if status, body := get(t, addr, fmt.Sprintf("/adrotate?u=%d&r=%d", k*5%64, k)); status != 200 || body == "" {
			t.Fatalf("ad page %d: status %d, %d bytes", k, status, len(body))
		}
		if status, body := get(t, addr, "/dynamic?n=2000"); status != 200 || !strings.Contains(body, "work=2000") {
			t.Fatalf("work page %d: status %d, body %q", k, status, truncate(body))
		}
		form := fmt.Sprintf("uid=%d&seq=%d&field=specweb", k*37, k)
		resp := exchange(t, addr, fmt.Sprintf(
			"POST /post HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(form), form))
		if !strings.HasPrefix(resp, "HTTP/1.1 200") || !strings.Contains(resp, fmt.Sprintf("received %d bytes", len(form))) {
			t.Fatalf("post %d: %q", k, truncate(resp))
		}
	}

	st := srv.Pages().DynStats()
	if st.FragHits != 0 || st.Interpreted != 0 {
		t.Errorf("dynamic mix left the compiled path: %+v", st)
	}
	if st.Compiled != 2*rounds {
		t.Errorf("compiled renders = %d, want %d (one per dynamic GET)", st.Compiled, 2*rounds)
	}
}

func TestKeepAliveServesMultipleRequests(t *testing.T) {
	files := loadgen.NewFileSet(1)
	_, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 1; i <= 5; i++ {
		path := files.Path(0, 0, i)
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
		status, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !strings.Contains(status, "200") {
			t.Fatalf("request %d: status %q", i, status)
		}
		clen := -1
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(line) == "" {
				break
			}
			if k, v, ok := strings.Cut(strings.TrimSpace(line), ":"); ok && strings.EqualFold(k, "Content-Length") {
				clen, _ = strconv.Atoi(strings.TrimSpace(v))
			}
		}
		if _, err := io.CopyN(io.Discard, br, int64(clen)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCacheHitPath(t *testing.T) {
	files := loadgen.NewFileSet(1)
	s, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPerFlow})
	defer stop()

	path := files.Path(0, 0, 1)
	get(t, addr, path) // miss, fills cache
	get(t, addr, path) // hit
	hits, misses, _ := s.CacheStats()
	if hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", hits)
	}
	if misses < 1 {
		t.Errorf("cache misses = %d", misses)
	}
}

func TestAllEnginesServe(t *testing.T) {
	files := loadgen.NewFileSet(1)
	for _, kind := range []runtime.EngineKind{runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven} {
		t.Run(kind.String(), func(t *testing.T) {
			_, addr, stop := startServer(t, Config{
				Files:    files,
				Engine:   kind,
				PoolSize: 4,
			})
			defer stop()
			status, _ := get(t, addr, files.Path(0, 1, 1))
			if status != 200 {
				t.Errorf("status = %d", status)
			}
		})
	}
}

func TestLoadGeneratorAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	files := loadgen.NewFileSet(1)
	s, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPool, PoolSize: 16})
	defer stop()

	res := loadgen.RunWebLoad(context.Background(), loadgen.WebClientConfig{
		Addr:     addr,
		Clients:  8,
		Files:    files,
		Duration: 500 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Seed:     42,
	})
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if st := s.Stats().Snapshot(); st.Completed == 0 {
		t.Error("server saw no completed flows")
	}
}

func TestPathProfileOfWebServer(t *testing.T) {
	files := loadgen.NewFileSet(1)
	tel := telemetry.New()
	s, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPerFlow, Telemetry: tel})
	defer stop()

	path := files.Path(0, 0, 2)
	get(t, addr, path)
	get(t, addr, path)
	get(t, addr, "/dynamic?n=10")
	stop()

	g := s.Program().Graphs["Listen"]
	rep := tel.PathProfile(g, telemetry.ByCount, 0)
	rows := rep.Paths
	if len(rows) == 0 {
		t.Fatal("no paths recorded")
	}
	var sawMiss, sawHit, sawDyn bool
	for _, r := range rows {
		if strings.Contains(r.Label, "ReadFile") {
			sawMiss = true
		}
		if strings.Contains(r.Label, "RunScript") {
			sawDyn = true
		}
		if r.Label == "Listen -> ReadRequest -> CheckCache -> SendResponse -> Complete" {
			sawHit = true
		}
	}
	if !sawMiss || !sawHit || !sawDyn {
		t.Errorf("paths missing (miss=%v hit=%v dyn=%v):\n%s",
			sawMiss, sawHit, sawDyn, rep.Render())
	}
}

// TestAbruptClientDisconnects injects clients that vanish mid-exchange:
// after the storm the server must still serve normally and the cache
// must not be wedged by leaked references (the Cleanup handler's job).
func TestAbruptClientDisconnects(t *testing.T) {
	files := loadgen.NewFileSet(1)
	_, addr, stop := startServer(t, Config{
		Files:      files,
		Engine:     runtime.ThreadPool,
		PoolSize:   8,
		CacheBytes: 4096, // small: leaked references would wedge eviction
	})
	defer stop()

	path := files.Path(0, 0, 1)
	for i := 0; i < 50; i++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			// Send a request and slam the connection without reading.
			fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
		case 1:
			// Half a request line.
			fmt.Fprintf(conn, "GET /half")
		case 2:
			// Nothing at all.
		}
		conn.Close()
	}

	// The server must still answer correctly afterwards.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		status, body := get(t, addr, path)
		want, _ := files.Lookup(path)
		if status == 200 && body == string(want) {
			// Eviction must still work: fetch other files through the
			// tiny cache.
			for f := 2; f <= 5; f++ {
				p2 := files.Path(0, 0, f)
				if st, _ := get(t, addr, p2); st != 200 {
					t.Fatalf("post-storm fetch of %s: status %d", p2, st)
				}
			}
			return
		}
	}
	t.Fatal("server wedged after abrupt disconnects")
}
