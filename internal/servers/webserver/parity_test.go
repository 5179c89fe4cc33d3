package webserver

// The cross-server wire-parity test: the Flux web server (on every
// engine) and the two hand-written baselines must put byte-identical
// responses on the wire for the same raw request streams, valid and
// hostile alike, so the Figure 3 comparison measures scheduling and
// nothing else.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/baseline/knotweb"
	"github.com/flux-lang/flux/internal/servers/baseline/sedaweb"
	"github.com/flux-lang/flux/internal/servers/httpkit"
)

// parityKeepAlive is every target's MaxKeepAlive; the cap case sends
// exactly this many requests.
const parityKeepAlive = 5

// parityServer is the lifecycle every target shares.
type parityServer interface {
	Start(ctx context.Context) error
	Shutdown(ctx context.Context) error
	Addr() string
}

type parityTarget struct {
	name string
	make func() (parityServer, error)
}

// parityTargets are the servers under comparison: the Flux web server
// on every engine, then the two baselines. Each case builds a fresh
// one, so the ad-rotation counter starts from the same state.
func parityTargets(files *loadgen.FileSet) []parityTarget {
	var targets []parityTarget
	for _, kind := range runtime.EngineKinds() {
		targets = append(targets, parityTarget{"flux-" + kind.String(), func() (parityServer, error) {
			return New(Config{Files: files, Engine: kind, PoolSize: 4,
				SourceTimeout: 2 * time.Millisecond, MaxKeepAlive: parityKeepAlive})
		}})
	}
	return append(targets,
		parityTarget{"knot-like", func() (parityServer, error) {
			return knotweb.New(knotweb.Config{Files: files, MaxKeepAlive: parityKeepAlive})
		}},
		parityTarget{"haboob-like", func() (parityServer, error) {
			return sedaweb.New(sedaweb.Config{Files: files, MaxKeepAlive: parityKeepAlive})
		}},
	)
}

// exchange writes raw to a fresh connection and returns every byte the
// server sends back before closing. A reset is not an error here:
// servers drop a malformed request without reading it through, and the
// kernel answers the unread bytes with RST.
func exchange(t *testing.T, addr, raw string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server held the connection open after %d bytes", len(out))
	}
	return string(out)
}

// serveOnce runs raw against a fresh server and shuts it down.
func serveOnce(t *testing.T, tgt parityTarget, raw string) string {
	t.Helper()
	srv, err := tgt.make()
	if err != nil {
		t.Fatalf("%s: %v", tgt.name, err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatalf("%s: start: %v", tgt.name, err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("%s: shutdown: %v", tgt.name, err)
		}
	}()
	return exchange(t, srv.Addr(), raw)
}

// TestWireParityAcrossServers sends one table of raw request streams to
// every target and requires identical response streams. Static answers
// are also pinned to httpkit.Render's bytes (plus WithCloseHeader on a
// connection's last response), and malformed requests to silence: the
// connection is dropped without a response.
func TestWireParityAcrossServers(t *testing.T) {
	files := loadgen.NewFileSet(1)
	if err := files.Materialize(t.TempDir()); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	t.Cleanup(func() { files.Close() })
	const closing = "Connection: close\r\n"
	get := func(path, extra string) string {
		return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n", path, extra)
	}
	post := func(extra string) string {
		return "POST /post HTTP/1.1\r\nHost: t\r\n" + extra + "Content-Length: 5\r\n\r\nab=cd"
	}
	rendered := func(path string, last bool) string {
		body, _ := files.Lookup(path)
		resp := httpkit.Render(200, "OK", "text/html", body)
		if last {
			resp = httpkit.WithCloseHeader(resp)
		}
		return string(resp)
	}
	static := files.Path(0, 1, 2)
	silence := ""
	notFound := string(httpkit.WithCloseHeader(httpkit.Render(404, "Not Found", "text/html",
		[]byte("<html><body><h1>404 Not Found</h1></body></html>"))))

	type parityCase struct {
		name string
		raw  string
		want *string // the exact stream, where it is known independently
	}
	var cases []parityCase
	for class := 0; class < 4; class++ {
		path := files.Path(0, class, 9)
		want := rendered(path, true)
		cases = append(cases, parityCase{fmt.Sprintf("static class %d", class), get(path, closing), &want})
	}
	capped := strings.Repeat(rendered(static, false), parityKeepAlive-1) + rendered(static, true)
	// Every server parses a connection's requests into buffers it reuses,
	// so it may read the next request only after the current response is
	// written: pipelined requests for different files, one past the
	// reader's 4 KB buffer, must still be answered each with its own file.
	var distinct, distinctWant string
	for class := 0; class < 4; class++ {
		path, last := files.Path(0, class, class+1), class == 3
		extra := ""
		if last {
			extra = closing
		}
		distinct += get(path, extra)
		distinctWant += rendered(path, last)
	}
	longLine := get(files.Path(0, 0, 1)+"?"+strings.Repeat("q", 5000), "") + get(static, closing)
	longWant := rendered(files.Path(0, 0, 1), false) + rendered(static, true)
	cases = append(cases,
		parityCase{"404", get("/no/such/file", ""), &notFound},
		parityCase{"dynamic", get("/dynamic?n=10", closing), nil},
		parityCase{"adrotate", get("/adrotate?u=3", closing), nil},
		parityCase{"post", post(closing), nil},
		parityCase{"pipelined keep-alive", get(static, "") + get("/adrotate?u=5", "") + post("") + get(static, closing), nil},
		parityCase{"keep-alive cap", strings.Repeat(get(static, ""), parityKeepAlive), &capped},
		parityCase{"pipelined distinct files", distinct, &distinctWant},
		parityCase{"pipelined long request line", longLine, &longWant},
		parityCase{"PUT", "PUT " + static + " HTTP/1.1\r\nHost: t\r\n" + closing + "\r\n", &silence},
		parityCase{"bad protocol", "GET " + static + " FOO/1.0\r\nHost: t\r\n" + closing + "\r\n", &silence},
		parityCase{"oversized request line", get("/"+strings.Repeat("a", httpkit.MaxLineBytes), closing), &silence},
		parityCase{"conflicting content lengths",
			"POST /post HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nab=cd", &silence},
	)

	// Non-canonical spellings of corpus files are unknown paths: serving
	// them would give each spelling its own body and cache slot.
	for _, alias := range []string{static + "1", "/dir00/class1_02.html", "/dir+0/class1_2.html"} {
		cases = append(cases, parityCase{"alias " + alias, get(alias, ""), &notFound})
	}

	targets := parityTargets(files)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := serveOnce(t, targets[0], tc.raw)
			if tc.want != nil && ref != *tc.want {
				t.Errorf("%s sent %d bytes %q, want %d bytes %q",
					targets[0].name, len(ref), truncate(ref), len(*tc.want), truncate(*tc.want))
			}
			for _, tgt := range targets[1:] {
				if got := serveOnce(t, tgt, tc.raw); got != ref {
					t.Errorf("%s sent %d bytes %q, %s sent %d bytes %q",
						tgt.name, len(got), truncate(got), targets[0].name, len(ref), truncate(ref))
				}
			}
		})
	}
}
