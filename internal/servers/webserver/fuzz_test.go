package webserver

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"github.com/flux-lang/flux/internal/servers/httpkit"
)

// FuzzReadRequest feeds arbitrary byte streams to the HTTP/1.1 request
// parser, draining up to a keep-alive conversation's worth of requests
// from each. The parser must never panic, and every request it accepts
// must satisfy the invariants the downstream graph nodes rely on:
// a GET/POST method, a non-empty path, a bounded body, and consistent
// post/dynamic classification.
//
// Seed corpus: testdata/fuzz/FuzzReadRequest. Run
// `go test -fuzz=FuzzReadRequest ./internal/servers/webserver/` to
// explore beyond it.
func FuzzReadRequest(f *testing.F) {
	seeds := []string{
		"GET /dir0/class0_1.html HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
		"GET /dynamic?n=10 HTTP/1.1\r\n\r\n",
		"GET /adrotate?u=3&r=9 HTTP/1.1\r\nConnection: close\r\n\r\n",
		"POST /post HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nab=cd",
		"POST /post HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
		"POST /post HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
		"POST /post HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nab=cd",
		"POST /post HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nab=cd",
		"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n",
		"DELETE /x HTTP/1.1\r\n\r\n",
		"GET /half",
		"GET / SPDY/9\r\n\r\n",
		"GET  HTTP/1.1\r\n\r\n",
		strings.Repeat("X-Pad: y\r\n", 70),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			req, err := ParseRequest(br)
			if err != nil {
				return // malformed or exhausted: the server discards the conn
			}
			if req.Method != "GET" && req.Method != "POST" {
				t.Fatalf("accepted method %q", req.Method)
			}
			if req.Path == "" {
				t.Fatal("accepted empty path")
			}
			if len(req.Body) > httpkit.MaxBodyBytes {
				t.Fatalf("body %d bytes exceeds cap", len(req.Body))
			}
			if req.post != (req.Method == "POST") {
				t.Fatalf("post flag %v disagrees with method %q", req.post, req.Method)
			}
			if req.post && !req.dynamic {
				t.Fatal("POST not classified dynamic: it would hit the response cache")
			}
			if len(req.Body) > 0 && !req.post {
				t.Fatalf("GET retained a %d-byte body", len(req.Body))
			}
		}
	})
}
