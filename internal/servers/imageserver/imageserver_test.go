package imageserver

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"image/jpeg"
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

// fetch gets /img<k>/<scale>, returning status and body.
func fetch(t *testing.T, addr string, img, scale int) (int, []byte) {
	t.Helper()
	return fetchPath(t, addr, fmt.Sprintf("/img%d/%d", img, scale))
}

func fetchPath(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
	br := bufio.NewReader(conn)
	statusLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	fields := strings.Fields(statusLine)
	status, _ := strconv.Atoi(fields[1])
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
	body := make([]byte, clen)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("body: %v", err)
	}
	return status, body
}

func TestServesValidJPEG(t *testing.T) {
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow})
	defer stop()

	status, body := fetch(t, addr, 0, 8)
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	cfg, err := jpeg.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a JPEG: %v", err)
	}
	if cfg.Width != 256 || cfg.Height != 192 {
		t.Errorf("full-size dims = %dx%d", cfg.Width, cfg.Height)
	}
}

func TestScales(t *testing.T) {
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()
	for scale := 1; scale <= 8; scale++ {
		status, body := fetch(t, addr, 1, scale)
		if status != 200 {
			t.Fatalf("scale %d: status %d", scale, status)
		}
		cfg, err := jpeg.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
		if want := 256 * scale / 8; cfg.Width != want {
			t.Errorf("scale %d: width = %d, want %d", scale, cfg.Width, want)
		}
	}
}

func TestMissingImage404(t *testing.T) {
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow})
	defer stop()
	status, _ := fetchPath(t, addr, "/nosuchimage/4")
	if status != 404 {
		t.Errorf("status = %d", status)
	}
}

// TestResponsesAnnounceClose: the image protocol is one request per
// connection, so every response — image or 404 — must say
// Connection: close (RFC 7230 §6.6) before the server hangs up.
func TestResponsesAnnounceClose(t *testing.T) {
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow})
	defer stop()
	for _, path := range []string{"/img0/2", "/nosuchimage/4"} {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		head, _, _ := strings.Cut(string(resp), "\r\n\r\n")
		if !strings.Contains(head, "\r\nConnection: close") {
			t.Errorf("%s: head %q does not announce the close", path, head)
		}
	}
}

func TestCacheHitSecondFetch(t *testing.T) {
	s, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow})
	defer stop()
	_, first := fetch(t, addr, 2, 4)
	_, second := fetch(t, addr, 2, 4)
	if !bytes.Equal(first, second) {
		t.Error("cached response differs from computed response")
	}
	hits, misses, _ := s.CacheStats()
	if hits != 1 || misses < 1 {
		t.Errorf("cache hits=%d misses=%d", hits, misses)
	}
}

func TestAllEnginesServe(t *testing.T) {
	for _, kind := range []runtime.EngineKind{runtime.ThreadPerFlow, runtime.ThreadPool, runtime.EventDriven} {
		t.Run(kind.String(), func(t *testing.T) {
			_, addr, stop := startServer(t, Config{
				Engine:        kind,
				PoolSize:      4,
				SourceTimeout: 2 * time.Millisecond,
			})
			defer stop()
			status, _ := fetch(t, addr, 0, 2)
			if status != 200 {
				t.Errorf("status = %d", status)
			}
		})
	}
}

func TestHitAndMissPathsProfiled(t *testing.T) {
	tel := telemetry.New()
	s, addr, stop := startServer(t, Config{Engine: runtime.ThreadPerFlow, Telemetry: tel})
	fetch(t, addr, 3, 2) // miss
	fetch(t, addr, 3, 2) // hit
	stop()

	g := s.Program().Graphs["Listen"]
	var sawHit, sawMiss bool
	rep := tel.PathProfile(g, telemetry.ByCount, 0)
	for _, r := range rep.Paths {
		if r.Label == "Listen -> ReadRequest -> CheckCache -> Write -> Complete" {
			sawHit = true
		}
		if strings.Contains(r.Label, "ReadInFromDisk -> Compress -> StoreInCache") {
			sawMiss = true
		}
	}
	if !sawHit || !sawMiss {
		t.Errorf("hit=%v miss=%v:\n%s", sawHit, sawMiss, rep.Render())
	}
}

func TestFixedRateLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	_, addr, stop := startServer(t, Config{Engine: runtime.ThreadPool, PoolSize: 8})
	defer stop()
	res := loadgen.RunImageLoad(context.Background(), loadgen.ImageClientConfig{
		Addr:     addr,
		Rate:     50,
		Duration: 600 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     1,
	})
	if res.Requests == 0 {
		t.Fatalf("no requests completed: %+v", res)
	}
}

func TestCompressWorkCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	_, addr, stop := startServer(t, Config{
		Engine:       runtime.ThreadPerFlow,
		CompressWork: 30 * time.Millisecond,
		CacheBytes:   1, // force misses
	})
	defer stop()
	start := time.Now()
	fetch(t, addr, 0, 1)
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("compress work not applied: %v", elapsed)
	}
}
