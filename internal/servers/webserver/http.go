package webserver

import (
	"bufio"

	"github.com/flux-lang/flux/internal/servers/httpkit"
)

// ParseRequest reads one request with the shared parser (httpkit) and
// classifies it for the graph's dispatch: POST, dynamic page, or static
// (cache) lookup. After a successful return the reader is positioned
// exactly at the next request. It is a standalone function (not a
// Server method) so the fuzz harness can drive it directly.
func ParseRequest(br *bufio.Reader) (*Request, error) {
	hr, err := httpkit.ReadRequest(br)
	if err != nil {
		return nil, err // EOF, reset, timeout, or malformed: handled by Discard
	}
	return &Request{Request: hr, post: hr.Method == "POST", dynamic: hr.Dynamic()}, nil
}
