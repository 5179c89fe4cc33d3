package webserver

import (
	"bufio"
	"sync"

	"github.com/flux-lang/flux/internal/servers/httpkit"
)

// ParseRequest reads one request with the shared parser (httpkit) into a
// fresh Request and classifies it for the graph's dispatch: POST,
// dynamic page, or static (cache) lookup. After a successful return the
// reader is positioned exactly at the next request. It is a standalone
// function (not a Server method) so the fuzz harness can drive it
// directly; the server parses into pooled Requests instead.
func ParseRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := req.parse(br); err != nil {
		return nil, err
	}
	return req, nil
}

// parse reads the next request into req, reusing its buffers.
func (req *Request) parse(br *bufio.Reader) error {
	if err := httpkit.ReadRequest(br, &req.Request); err != nil {
		return err // EOF, reset, timeout, or malformed: handled by Discard
	}
	req.post = req.Method == "POST"
	req.dynamic = req.Dynamic()
	return nil
}

// requestPool recycles Requests across flows: a flow takes one in
// ReadRequest and its terminal node (Complete, Cleanup, FourOhFour)
// returns it, once nothing reads the record that holds it.
var requestPool = sync.Pool{New: func() any { return new(Request) }}

// putRequest clears req's per-flow state and pools it; the parse
// buffers are kept.
func putRequest(req *Request) {
	req.rec = [3]any{}
	req.hit, req.stored = false, false
	req.body = httpkit.Body{}
	requestPool.Put(req)
}
