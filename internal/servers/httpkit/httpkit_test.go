package httpkit

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

func TestRenderFraming(t *testing.T) {
	resp := Render(200, "OK", "text/html", []byte("hello"))
	s := string(resp)
	if !strings.HasPrefix(s, "HTTP/1.1 200 OK\r\n") {
		t.Errorf("status line wrong: %q", s)
	}
	if !strings.Contains(s, "Content-Length: 5\r\n") {
		t.Errorf("content length wrong: %q", s)
	}
	if !strings.HasSuffix(s, "\r\n\r\nhello") {
		t.Errorf("body framing wrong: %q", s)
	}
}

func TestWithCloseHeader(t *testing.T) {
	orig := Render(200, "OK", "text/html", []byte("body"))
	before := append([]byte(nil), orig...)
	closed := WithCloseHeader(orig)
	if !bytes.Equal(orig, before) {
		t.Error("WithCloseHeader mutated its input (cached responses must stay clean)")
	}
	s := string(closed)
	if !strings.Contains(s, "\r\nConnection: close\r\n") {
		t.Errorf("close header missing: %q", s)
	}
	if !strings.HasSuffix(s, "\r\n\r\nbody") {
		t.Errorf("body framing broken: %q", s)
	}
	// Malformed input (no blank line) passes through untouched.
	if got := WithCloseHeader([]byte("junk")); string(got) != "junk" {
		t.Errorf("malformed passthrough = %q", got)
	}
}

// TestReadHeadersDuplicateContentLength: conflicting duplicate
// Content-Length headers are the classic request-smuggling shape and
// must be rejected; identical repeats are legal (RFC 7230 §3.3.2) and
// collapse to one value.
func TestReadHeadersDuplicateContentLength(t *testing.T) {
	read := func(headers string) (bool, int, error) {
		br := bufio.NewReader(strings.NewReader(headers))
		var spill []byte
		return readHeaders(br, &spill)
	}
	if _, _, err := read("Content-Length: 5\r\nContent-Length: 6\r\n\r\n"); err == nil {
		t.Error("conflicting Content-Length headers accepted")
	}
	_, n, err := read("Content-Length: 5\r\nContent-Length: 5\r\n\r\n")
	if err != nil {
		t.Errorf("identical repeated Content-Length rejected: %v", err)
	}
	if n != 5 {
		t.Errorf("content length = %d, want 5", n)
	}
	if _, n, err = read("Content-Length: 7\r\n\r\n"); err != nil || n != 7 {
		t.Errorf("single Content-Length: n=%d err=%v", n, err)
	}
}

// TestStaticHeaderParity: the pre-serialized header blob must be
// byte-identical to Render's head — the zero-copy path may never
// change the wire format — including the Connection: close variant,
// which must match WithCloseHeader's insertion exactly.
func TestStaticHeaderParity(t *testing.T) {
	body := []byte("hello world")
	rendered := Render(200, "OK", "text/html", body)
	head := StaticHeader(200, "OK", "text/html", len(body), false)
	if got := append(append([]byte{}, head...), body...); !bytes.Equal(got, rendered) {
		t.Errorf("StaticHeader+body = %q, Render = %q", got, rendered)
	}
	closedRendered := WithCloseHeader(rendered)
	closedHead := StaticHeader(200, "OK", "text/html", len(body), true)
	if got := append(append([]byte{}, closedHead...), body...); !bytes.Equal(got, closedRendered) {
		t.Errorf("closing StaticHeader+body = %q, WithCloseHeader(Render) = %q", got, closedRendered)
	}
}

// TestStaticHeaderInterned: repeated lookups return the same backing
// blob — the hot path is a map read, not a render.
func TestStaticHeaderInterned(t *testing.T) {
	a := StaticHeader(200, "OK", "text/html", 4096, false)
	b := StaticHeader(200, "OK", "text/html", 4096, false)
	if &a[0] != &b[0] {
		t.Error("StaticHeader re-rendered an interned header")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = StaticHeader(200, "OK", "text/html", 4096, false)
	}); allocs != 0 {
		t.Errorf("interned lookup allocates %v per call", allocs)
	}
}

// loopback returns a plane-admitted server-side Conn and the client end
// of its TCP connection; the client drains nothing unless asked.
func loopback(t testing.TB) (*netkit.Conn, net.Conn) {
	t.Helper()
	admitted := make(chan *netkit.Conn, 1)
	p, err := netkit.Listen(netkit.Config{Admit: func(c *netkit.Conn) error { admitted <- c; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := <-admitted
	t.Cleanup(func() {
		client.Close()
		c.Close()
		cancel()
		_ = p.Wait()
	})
	return c, client
}

// TestRespondWire: every body kind goes out as exactly the bytes Render
// builds, with WithCloseHeader's insertion on a connection's last
// response — interned, per-response and sendfile headers alike.
func TestRespondWire(t *testing.T) {
	pages, err := fscript.NewBenchPages()
	if err != nil {
		t.Fatal(err)
	}
	static := bytes.Repeat([]byte("s"), 1000)
	name := filepath.Join(t.TempDir(), "large")
	large := bytes.Repeat([]byte("f"), SendfileThreshold)
	if err := os.WriteFile(name, large, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	page, err := pages.Render("/dynamic", "n=10", 2000)
	if err != nil {
		t.Fatal(err)
	}
	post := &Request{Method: "POST", Path: "/post", Body: []byte("ab=cd")}
	get := &Request{Method: "GET", Path: "/dynamic", Query: "n=10"}

	cases := []struct {
		name string
		body func() Body
		want []byte
	}{
		{"static", func() Body { return Body{Bytes: static} }, Render(200, "OK", "text/html", static)},
		{"file", func() Body { return Body{File: file, Size: int64(len(large))} }, Render(200, "OK", "text/html", large)},
		{"page", func() Body {
			b, err := RenderDynamic(pages, get, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, Render(200, "OK", "text/html", []byte(page))},
		{"post", func() Body {
			b, _ := RenderDynamic(pages, post, 2000)
			return b
		}, RenderPostConfirm("/post", 5)},
	}
	for _, tc := range cases {
		for _, last := range []bool{false, true} {
			c, client := loopback(t)
			errc := make(chan error, 1)
			go func() { errc <- Respond(c, 200, "OK", "text/html", tc.body(), last) }()
			want := tc.want
			if last {
				want = WithCloseHeader(want)
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(client, got); err != nil {
				t.Fatalf("%s last=%v: read: %v", tc.name, last, err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("%s last=%v: Respond: %v", tc.name, last, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s last=%v: got %q, want %q", tc.name, last, got[:min(len(got), 120)], want[:min(len(want), 120)])
			}
		}
	}
}

// TestRespondStaticZeroAllocs: the static path — interned header lookup
// plus one vectored write over a real socket — allocates nothing.
func TestRespondStaticZeroAllocs(t *testing.T) {
	c, client := loopback(t)
	go io.Copy(io.Discard, client)
	body := Body{Bytes: bytes.Repeat([]byte("b"), 4096)}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Respond(c, 200, "OK", "text/html", body, false); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("static Respond allocates %v per response", allocs)
	}
}

// BenchmarkStaticResponseWrite is the CI-gated static hot path: header
// blob lookup plus one vectored write per response. The allocation
// budget is zero — any per-response allocation is a regression the
// benchdiff gate fails.
func BenchmarkStaticResponseWrite(b *testing.B) {
	c, client := loopback(b)
	go io.Copy(io.Discard, client)
	body := Body{Bytes: bytes.Repeat([]byte("b"), 4096)}
	b.SetBytes(int64(len(body.Bytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Respond(c, 200, "OK", "text/html", body, false); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStaticBody: a materialized file of at least SendfileThreshold is
// sent from its shared disk handle, anything smaller — or any file of an
// unmaterialized corpus — as the corpus bytes, and a path outside the
// corpus is unknown. The key is the corpus's own path string, not the
// caller's. Choosing allocates nothing once a small body is resident.
func TestStaticBody(t *testing.T) {
	files := loadgen.NewFileSet(1)
	small, large := files.Path(0, 1, 2), files.Path(0, 3, 9)
	if b, _, ok := StaticBody(files, large); !ok || b.File != nil || len(b.Bytes) != files.Size(3, 9) {
		t.Fatalf("unmaterialized large file: %v %v, want its bytes", b.File, ok)
	}
	files = loadgen.NewFileSet(1)
	if err := files.Materialize(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer files.Close()
	small, large = files.Path(0, 1, 2), files.Path(0, 3, 9)
	b, key, ok := StaticBody(files, large)
	if _, _, disk, _ := files.Resolve(large); !ok || b.File == nil || b.File != disk || b.Size != int64(files.Size(3, 9)) || b.Bytes != nil {
		t.Fatalf("materialized large file: %v size %d bytes %d %v, want the shared handle", b.File, b.Size, len(b.Bytes), ok)
	}
	if unsafe.StringData(key) != unsafe.StringData(large) {
		t.Fatalf("key %q is not the corpus's own path string", key)
	}
	want, _ := files.Lookup(small)
	copied := string(append([]byte(nil), small...))
	if b, key, ok := StaticBody(files, copied); !ok || b.File != nil || !bytes.Equal(b.Bytes, want) ||
		unsafe.StringData(key) != unsafe.StringData(small) {
		t.Fatalf("small file: %v %d bytes %v key %q, want its bytes under the corpus's key", b.File, len(b.Bytes), ok, key)
	}
	if _, _, ok := StaticBody(files, "/dir0/class1_02.html"); ok {
		t.Fatal("non-canonical path resolved")
	}
	for _, path := range []string{small, large} {
		if allocs := testing.AllocsPerRun(100, func() { StaticBody(files, path) }); allocs != 0 {
			t.Errorf("StaticBody(%s) allocates %v per call", path, allocs)
		}
	}
}

// BenchmarkStaticBody is the CI-gated static-body choice on a cache
// miss: a small resident corpus file and a sendfile-bound materialized
// one. The allocation budget is zero for both.
func BenchmarkStaticBody(b *testing.B) {
	files := loadgen.NewFileSet(1)
	if err := files.Materialize(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	defer files.Close()
	for _, bc := range []struct{ name, path string }{
		{"cached", files.Path(0, 1, 2)},
		{"sendfile", files.Path(0, 3, 9)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			StaticBody(files, bc.path) // make a small body resident
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := StaticBody(files, bc.path); !ok {
					b.Fatal("unknown path")
				}
			}
		})
	}
}
