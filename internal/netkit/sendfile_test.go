package netkit

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// sharedFile writes n deterministic bytes to a file and opens it once,
// as a materialized corpus does.
func sharedFile(t testing.TB, n int) (*os.File, []byte) {
	t.Helper()
	body := make([]byte, n)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	name := filepath.Join(t.TempDir(), "shared")
	if err := os.WriteFile(name, body, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, body
}

// offset reports f's own file offset.
func offset(t *testing.T, f *os.File) int64 {
	t.Helper()
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// TestSendFileSharedHandle: N connections send one *os.File at once,
// several frames each, and every stream arrives byte-exact — the body
// is larger than the socket buffers, so each send waits for
// writability mid-frame. The file's own offset is never moved.
func TestSendFileSharedHandle(t *testing.T) {
	const conns, frames = 8, 3
	f, body := sharedFile(t, 3<<20/2)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		server, client := tcpPair(t)
		c := newConn(nil, server)
		hd := head(len(body))
		want := bytes.Repeat(append(append([]byte{}, hd...), body...), frames)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < frames; j++ {
				if err := c.SendFile(hd, f, int64(len(body))); err != nil {
					t.Errorf("conn %d frame %d: SendFile: %v", i, j, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(client, got); err != nil {
				t.Errorf("conn %d: read: %v", i, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("conn %d: stream differs from %d frames of the file", i, frames)
			}
		}()
	}
	wg.Wait()
	if off := offset(t, f); off != 0 {
		t.Fatalf("shared file offset moved to %d", off)
	}
}

// TestSendFileNonTCPFallback: on a transport without sendfile(2) the
// frame is copied, byte-exact, without moving the file's offset.
func TestSendFileNonTCPFallback(t *testing.T) {
	f, body := sharedFile(t, 100<<10)
	server, client := net.Pipe()
	defer client.Close()
	c := newConn(nil, server)
	defer c.Close()
	hd := head(len(body))
	errc := make(chan error, 1)
	go func() { errc <- c.SendFile(hd, f, int64(len(body))) }()
	got := make([]byte, len(hd)+len(body))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("SendFile: %v", err)
	}
	if !bytes.Equal(got, append(append([]byte{}, hd...), body...)) {
		t.Fatal("copied frame differs from the file")
	}
	if off := offset(t, f); off != 0 {
		t.Fatalf("file offset moved to %d", off)
	}
}

// TestSendFileShortFileTearsDown: a file shorter than the declared size
// fails the send and tears the transport down, so the peer sees the
// frame cut off by EOF instead of a stalled keep-alive stream.
func TestSendFileShortFileTearsDown(t *testing.T) {
	f, body := sharedFile(t, 1000)
	server, client := tcpPair(t)
	c := newConn(nil, server)
	defer c.Close()
	hd := head(len(body) + 1)
	if err := c.SendFile(hd, f, int64(len(body)+1)); err == nil {
		t.Fatal("SendFile of a short file succeeded")
	}
	got, _ := io.ReadAll(client)
	if want := append(append([]byte{}, hd...), body...); !bytes.Equal(got, want) {
		t.Fatalf("peer read %d bytes before EOF, want the %d the file has", len(got), len(want))
	}
}

// TestSendFileZeroAllocs: once a connection has sent one file, the
// sendfile(2) path allocates nothing per response.
func TestSendFileZeroAllocs(t *testing.T) {
	f, body := sharedFile(t, 64<<10)
	server, client := tcpPair(t)
	c := newConn(nil, server)
	defer c.Close()
	go io.Copy(io.Discard, client)
	hd := head(len(body))
	send := func() {
		if err := c.SendFile(hd, f, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("SendFile allocates %v per response", allocs)
	}
}
