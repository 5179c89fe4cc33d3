package webserver

import (
	"bufio"
	"fmt"
	"strings"
	"testing"

	"github.com/flux-lang/flux/internal/servers/httpkit"
)

func parse(t *testing.T, raw string) (*Request, error) {
	t.Helper()
	return ParseRequest(bufio.NewReader(strings.NewReader(raw)))
}

func TestParseRequestLimits(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"oversized request line", "GET /" + strings.Repeat("a", httpkit.MaxLineBytes) + " HTTP/1.1\r\n\r\n"},
		{"oversized header line", "GET / HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", httpkit.MaxLineBytes) + "\r\n\r\n"},
		{"too many headers", "GET / HTTP/1.1\r\n" + strings.Repeat("X-Pad: y\r\n", httpkit.MaxHeaderLines+1) + "\r\n"},
		{"oversized body", fmt.Sprintf("POST /post HTTP/1.1\r\nContent-Length: %d\r\n\r\n", httpkit.MaxBodyBytes+1)},
		{"negative body", "POST /post HTTP/1.1\r\nContent-Length: -1\r\n\r\n"},
		{"bad method", "DELETE /x HTTP/1.1\r\n\r\n"},
		{"bad protocol", "GET / SPDY/9\r\n\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parse(t, tc.raw); err == nil {
				t.Error("accepted, want rejection")
			}
		})
	}
}

func TestParseRequestKeepsFraming(t *testing.T) {
	// Two pipelined requests, the first with a body: the second must
	// parse from exactly where the first ended.
	raw := "POST /post HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd" +
		"GET /dir0/class0_1.html HTTP/1.1\r\nConnection: close\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	first, err := ParseRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	if !first.post || string(first.Body) != "abcd" {
		t.Errorf("first = %+v body %q", first, first.Body)
	}
	second, err := ParseRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	if second.Method != "GET" || second.Path != "/dir0/class0_1.html" || second.KeepAlive {
		t.Errorf("second = %+v", second)
	}
}

func TestParseRequestGETBodyConsumedNotKept(t *testing.T) {
	raw := "GET /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz" +
		"GET /y HTTP/1.1\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	first, err := ParseRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Body) != 0 {
		t.Errorf("GET kept body %q", first.Body)
	}
	second, err := ParseRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	if second.Path != "/y" {
		t.Errorf("framing broken after GET body: %+v", second)
	}
}
