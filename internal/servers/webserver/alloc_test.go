package webserver

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/runtime"
	"github.com/flux-lang/flux/internal/servers/httpkit"
	"github.com/flux-lang/flux/internal/telemetry"
)

// keepAliveRig is one server in its production shape (PoolSize 64,
// telemetry attached, read and write deadlines armed) and one keep-alive
// client connection GETting one class-0 file. The client writes a
// pre-built request and reads the response into a reused buffer, so a
// round trip's allocations, counted process-wide, are the server's.
type keepAliveRig struct {
	conn net.Conn
	req  []byte
	resp []byte
	want []byte
}

func newKeepAliveRig(tb testing.TB, kind runtime.EngineKind) *keepAliveRig {
	tb.Helper()
	files := loadgen.NewFileSet(1)
	path := files.Path(0, 0, 1)
	body, _ := files.Lookup(path)
	srv, err := New(Config{
		Files:         files,
		Engine:        kind,
		PoolSize:      64,
		Telemetry:     telemetry.New(),
		MaxKeepAlive:  math.MaxInt, // one conversation for the whole run
		HeaderTimeout: 5 * time.Second,
		IdleTimeout:   30 * time.Second,
		WriteTimeout:  5 * time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		conn.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	want := httpkit.Render(200, "OK", "text/html", body)
	rig := &keepAliveRig{
		conn: conn,
		req:  []byte("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n"),
		resp: make([]byte, len(want)),
		want: want,
	}
	// Warm up: the first requests fill the cache and the pools.
	for i := 0; i < 200; i++ {
		rig.roundTrip(tb)
	}
	if !bytes.Equal(rig.resp, want) {
		tb.Fatalf("%s answered %q, want %q", kind, rig.resp, want)
	}
	return rig
}

// roundTrip sends one request and reads its whole response.
func (r *keepAliveRig) roundTrip(tb testing.TB) {
	if _, err := r.conn.Write(r.req); err != nil {
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(r.conn, r.resp); err != nil {
		tb.Fatal(err)
	}
}

// TestKeepAliveRequestZeroAllocs: on every engine a keep-alive request
// — parse, cache hit, response write, re-admission — allocates nothing
// in steady state.
func TestKeepAliveRequestZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects under -race; recycling is asserted in the normal build")
	}
	for _, kind := range runtime.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			rig := newKeepAliveRig(t, kind)
			if allocs := testing.AllocsPerRun(500, func() { rig.roundTrip(t) }); allocs != 0 {
				t.Errorf("%v allocations per keep-alive request, want 0", allocs)
			}
		})
	}
}

// BenchmarkKeepAliveRequest is the CI-gated end-to-end request path of
// TestKeepAliveRequestZeroAllocs, one sub-benchmark per engine. The
// allocation budget is zero.
func BenchmarkKeepAliveRequest(b *testing.B) {
	for _, kind := range runtime.EngineKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rig := newKeepAliveRig(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.roundTrip(b)
			}
		})
	}
}
