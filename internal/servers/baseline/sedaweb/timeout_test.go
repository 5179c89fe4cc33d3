package sedaweb

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
)

// TestWriteTimeoutShedsStalledClient pipelines large keep-alive GETs and
// never reads a byte: once the socket buffers fill, the write deadline
// must pop and the plane must count the shed.
func TestWriteTimeoutShedsStalledClient(t *testing.T) {
	files := loadgen.NewFileSet(1)
	s, err := New(Config{Files: files, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	conn, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 16 pipelined 900 KB responses overwhelm any loopback buffering.
	for i := 0; i < 16; i++ {
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", files.Path(0, 3, 9))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.PlaneStats().Shed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client never shed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
