package webserver

// Tests for the zero-copy static path: sendfile must serve large
// bodies intact and bypass the cache, SO_REUSEPORT sharding must serve
// transparently, and a client that stops draining its socket
// (write-side slow loris) must be torn down and counted. Wire parity
// with the baselines lives in parity_test.go.

import (
	"fmt"
	"net"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/telemetry"
)

// TestSendfileServesLargeBody: with the corpus materialized, a class-3
// body crosses the sendfile threshold and must still arrive
// byte-identical to the in-memory corpus.
func TestSendfileServesLargeBody(t *testing.T) {
	files := loadgen.NewFileSet(1)
	if err := files.Materialize(t.TempDir()); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	s, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPerFlow})
	defer stop()

	path := files.Path(0, 3, 9) // 900 KB, well past the 64 KB threshold
	status, body := get(t, addr, path)
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	want, _ := files.Lookup(path)
	if body != string(want) {
		t.Fatalf("sendfile body mismatch: got %d bytes, want %d", len(body), len(want))
	}
	// Sendfile-served bodies bypass the response cache: a repeat request
	// must be another miss, not a hit on a cached copy.
	if _, _ = get(t, addr, path); func() uint64 { h, _, _ := s.CacheStats(); return h }() != 0 {
		t.Error("large body found in the response cache; sendfile path must bypass it")
	}
}

// TestSendfileKeepsCorpusOutOfHeap: serving every sendfile-bound file
// of a materialized corpus must not make the corpus resident. The
// 1-directory corpus is ~5 MB, ~4.5 MB of it in files of 64 KB or more;
// after a GC the heap must have grown by less than 1 MB since before the
// corpus existed.
func TestSendfileKeepsCorpusOutOfHeap(t *testing.T) {
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)

	files := loadgen.NewFileSet(1)
	if err := files.Materialize(t.TempDir()); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	_, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPool, PoolSize: 4})
	defer stop()
	served := 0
	for c := 0; c < 4; c++ {
		for f := 1; f <= 9; f++ {
			if files.Size(c, f) < httpkit.SendfileThreshold {
				continue
			}
			if status, body := get(t, addr, files.Path(0, c, f)); status != 200 || len(body) != files.Size(c, f) {
				t.Fatalf("%s: status %d, %d bytes", files.Path(0, c, f), status, len(body))
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no corpus file reaches the sendfile threshold")
	}

	goruntime.GC()
	goruntime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %d KB serving %d sendfile-bound files", grew>>10, served)
	if grew >= 1<<20 {
		t.Errorf("heap grew %d KB; want < 1024 KB", grew>>10)
	}
}

// TestWriteTimeoutShedsStalledClient pipelines several large keep-alive
// GETs and never reads a byte. Once the kernel buffers fill, the write
// deadline must pop, the connection must be torn down, and the shed
// must be counted under webserver/write-timeout on the Observer plane.
func TestWriteTimeoutShedsStalledClient(t *testing.T) {
	files := loadgen.NewFileSet(1)
	tel := telemetry.New()
	_, addr, stop := startServer(t, Config{
		Files:        files,
		Engine:       runtime.ThreadPerFlow,
		WriteTimeout: 200 * time.Millisecond,
		Telemetry:    tel,
	})
	defer stop()

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 16 pipelined 900 KB responses (~14 MB) overwhelm any loopback
	// socket buffering; the client reads none of it.
	path := files.Path(0, 3, 9)
	for i := 0; i < 16; i++ {
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path)
	}
	waitShed(t, tel, "write-timeout")

	// The worker the stalled client held is free again.
	if status, _ := get(t, addr, files.Path(0, 0, 1)); status != 200 {
		t.Errorf("post-stall request: status = %d", status)
	}
}

// TestListenShardsServe: a sharded server serves normally; on Linux the
// plane must actually have opened the requested shard count, elsewhere
// the single-listener fallback serves identically.
func TestListenShardsServe(t *testing.T) {
	files := loadgen.NewFileSet(1)
	s, addr, stop := startServer(t, Config{Files: files, Engine: runtime.ThreadPool, PoolSize: 4, ListenShards: 2})
	defer stop()

	if got := s.cp.Shards(); goruntime.GOOS == "linux" && got != 2 {
		t.Errorf("Shards() = %d, want 2 on linux", got)
	} else if got < 1 {
		t.Errorf("Shards() = %d, want >= 1", got)
	}
	for i := 0; i < 20; i++ {
		path := files.Path(0, 0, 1+i%9)
		status, body := get(t, addr, path)
		want, _ := files.Lookup(path)
		if status != 200 || body != string(want) {
			t.Fatalf("request %d: status=%d len=%d", i, status, len(body))
		}
	}
}
