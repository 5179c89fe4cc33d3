package netkit

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// head is a response head for a body of n bytes.
func head(n int) []byte {
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", n))
}

// tcpPair returns a connected loopback pair (server side first), both
// closed at test end.
func tcpPair(t testing.TB) (server, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		client, err = net.Dial("tcp", ln.Addr().String())
	}()
	server, aerr := ln.Accept()
	<-done
	if err != nil || aerr != nil {
		t.Fatalf("pair: dial=%v accept=%v", err, aerr)
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

// TestWriteVecDeliversOneFrame: header and body written vectored arrive
// as the exact concatenation a contiguous write would have produced —
// the zero-copy path is wire-identical to the copy path.
func TestWriteVecDeliversOneFrame(t *testing.T) {
	server, client := tcpPair(t)
	c := newConn(nil, server)
	defer c.Close()

	body := bytes.Repeat([]byte("x"), 9000) // larger than one segment
	hd := head(len(body))
	errc := make(chan error, 1)
	go func() { errc <- c.WriteVec(hd, body) }()

	want := append(append([]byte{}, hd...), body...)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("WriteVec: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("vectored frame differs from contiguous render")
	}
}

// TestSendFileDeliversFile: a materialized body streams through
// SendFile (sendfile(2) on TCP) byte-identical to the source file,
// prefixed by the header blob.
func TestSendFileDeliversFile(t *testing.T) {
	server, client := tcpPair(t)
	c := newConn(nil, server)
	defer c.Close()

	body := bytes.Repeat([]byte("sendfile body "), 10000)
	name := filepath.Join(t.TempDir(), "body")
	if err := os.WriteFile(name, body, 0o644); err != nil {
		t.Fatal(err)
	}
	hd := head(len(body))

	errc := make(chan error, 1)
	go func() {
		f, err := os.Open(name)
		if err != nil {
			errc <- err
			return
		}
		defer f.Close()
		errc <- c.SendFile(hd, f, int64(len(body)))
	}()

	want := append(append([]byte{}, hd...), body...)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("SendFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sendfile frame differs from source file")
	}
}

// TestWriteDeadlinePopsOnStalledClient: with a write timeout armed, a
// client that stops draining its socket fails the server's write with a
// timeout error instead of pinning the writer forever.
func TestWriteDeadlinePopsOnStalledClient(t *testing.T) {
	server, _ := tcpPair(t) // client never reads
	c := newConn(nil, server)
	defer c.Close()
	c.writeTimeout = 100 * time.Millisecond

	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if _, err = c.Write(buf); err != nil {
			break
		}
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled write error = %v, want net.Error timeout", err)
	}
}

// TestWriteTimeoutCountsOneShedPerFailure: against a peer that never
// reads, a WriteVec, a SendFile and a Write each fail on the plane's
// write deadline, and the plane counts each failure exactly once as a
// write-timeout shed. A ShedConn whose 503 times out counts once too,
// under the reason it was shed for.
func TestWriteTimeoutCountsOneShedPerFailure(t *testing.T) {
	rec := newShedRecorder()
	admitted := make(chan *Conn, 1)
	p, stop := startPlane(t, Config{
		Name:         "stalled",
		WriteTimeout: 100 * time.Millisecond,
		ShedResponse: unavailable,
		Observer:     rec,
		Admit:        func(c *Conn) error { admitted <- c; return nil },
	})
	defer stop()
	file := filepath.Join(t.TempDir(), "body")
	if err := os.WriteFile(file, []byte("body"), 0o644); err != nil {
		t.Fatal(err)
	}

	// stalled admits a connection whose peer never reads, then fills its
	// send path through the raw socket, which the plane does not count,
	// until a write makes no progress at all.
	stalled := func() *Conn {
		peer, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		var c *Conn
		select {
		case c = <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatal("connection never admitted")
		}
		nc := c.NetConn()
		for chunk := make([]byte, 1<<20); ; {
			_ = nc.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
			if n, _ := nc.Write(chunk); n == 0 {
				return c
			}
		}
	}
	writes := []struct {
		name  string
		write func(*Conn) error
	}{
		{"WriteVec", func(c *Conn) error { return c.WriteVec(head(4), []byte("body")) }},
		{"SendFile", func(c *Conn) error {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			return c.SendFile(head(4), f, 4)
		}},
		{"Write", func(c *Conn) error { _, err := c.Write(head(0)); return err }},
	}
	for i, w := range writes {
		c := stalled()
		if err := w.write(c); err == nil {
			t.Fatalf("%s to a stalled peer succeeded", w.name)
		}
		c.Close()
		if got := p.Stats().Shed; got != uint64(i+1) {
			t.Errorf("after %s: Shed = %d, want %d", w.name, got, i+1)
		}
		if got := rec.count("stalled/write-timeout"); got != i+1 {
			t.Errorf("after %s: write-timeout sheds = %d, want %d", w.name, got, i+1)
		}
	}

	p.ShedConn(stalled(), "overload")
	if got := p.Stats().Shed; got != uint64(len(writes)+1) {
		t.Errorf("after ShedConn: Shed = %d, want %d", got, len(writes)+1)
	}
	if got := rec.count("stalled/overload"); got != 1 {
		t.Errorf("overload sheds = %d, want 1", got)
	}
	if got := rec.count("stalled/write-timeout"); got != len(writes) {
		t.Errorf("ShedConn's timed-out 503 counted as a write-timeout too (%d)", got)
	}
}

// blockingConn is a fake transport that accepts a bounded number of
// bytes and then fails with a timeout — a write deadline popping on a
// zero-window client mid-frame.
type blockingConn struct {
	limit  int
	wrote  bytes.Buffer
	closed bool
}

type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "i/o timeout" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return true }

func (b *blockingConn) Write(p []byte) (int, error) {
	room := b.limit - b.wrote.Len()
	if room <= 0 {
		return 0, fakeTimeout{}
	}
	if len(p) <= room {
		b.wrote.Write(p)
		return len(p), nil
	}
	b.wrote.Write(p[:room])
	return room, fakeTimeout{}
}

func (b *blockingConn) Read([]byte) (int, error)           { return 0, io.EOF }
func (b *blockingConn) Close() error                       { b.closed = true; return nil }
func (b *blockingConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (b *blockingConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (b *blockingConn) SetDeadline(time.Time) error        { return nil }
func (b *blockingConn) SetReadDeadline(t time.Time) error  { return nil }
func (b *blockingConn) SetWriteDeadline(t time.Time) error { return nil }

// TestWriteVecShortWriteTearsDown: a frame that stalls partway must
// tear the transport down — the connection can never carry another
// response after a partial one — and surface the timeout to the caller
// so the owner can count the shed.
func TestWriteVecShortWriteTearsDown(t *testing.T) {
	hd := head(5)
	fc := &blockingConn{limit: len(hd) + 2} // dies mid-body
	c := newConn(nil, fc)

	err := c.WriteVec(hd, []byte("hello"))
	if err == nil {
		t.Fatal("short write returned nil error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error = %v, want wrapped net.Error timeout", err)
	}
	if !fc.closed {
		t.Fatal("underlying transport left open after a partial frame")
	}
	// The pooled state still has exactly one owner close.
	c.Close()
}

// echoPlane serves one request line per connection, echoing it back.
func echoPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	cfg.Admit = func(c *Conn) error {
		go func() {
			line, err := c.Reader().ReadString('\n')
			if err == nil {
				fmt.Fprintf(c, "echo %s", line)
			}
			c.Close()
		}()
		return nil
	}
	p, stop := startPlane(t, cfg)
	t.Cleanup(stop)
	return p
}

func dialEcho(t *testing.T, addr string, i int) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "hello %d\n", i)
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("echo hello %d\n", i); string(out) != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

// TestListenShardsServe: with SO_REUSEPORT available the plane opens
// the requested shard count and serves across all of them.
func TestListenShardsServe(t *testing.T) {
	if !reuseportAvailable {
		t.Skip("SO_REUSEPORT unsupported on this platform")
	}
	p := echoPlane(t, Config{ListenShards: 3})
	if got := p.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dialEcho(t, p.Addr(), i)
		}(i)
	}
	wg.Wait()
	if st := p.Stats(); st.Accepted != 30 {
		t.Fatalf("accepted = %d, want 30", st.Accepted)
	}
}

// TestListenShardsFallback: without SO_REUSEPORT (forced via the test
// hook) the plane falls back to a single listener and serves
// identically — the cross-platform guarantee.
func TestListenShardsFallback(t *testing.T) {
	saved := reuseportAvailable
	reuseportAvailable = false
	defer func() { reuseportAvailable = saved }()

	p := echoPlane(t, Config{ListenShards: 3})
	if got := p.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1 (fallback)", got)
	}
	for i := 0; i < 10; i++ {
		dialEcho(t, p.Addr(), i)
	}
}
