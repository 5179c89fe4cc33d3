// Package httpkit is the one HTTP/1.1 layer of the web servers — the
// Flux web server and the hand-written baselines (knotweb, sedaweb) —
// and writes the image server's responses. It parses every request
// (ReadRequest: GET/POST over HTTP/1.x, with line, header and body caps)
// and writes every response (Respond: an interned header and writev(2)
// for static bodies, sendfile(2) for large materialized files, a
// per-response header for rendered pages). The servers differ only in
// how they schedule those two calls, so the macro comparison measures
// server architecture and a hardening fix lands in one place.
package httpkit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"github.com/flux-lang/flux/internal/loadgen"
	"github.com/flux-lang/flux/internal/netkit"
	"github.com/flux-lang/flux/internal/servers/webserver/fscript"
)

// Request-parser hardening limits: a request exceeding them is
// malformed and the connection is dropped, so one hostile client cannot
// balloon a server's memory.
const (
	// MaxHeaderLines bounds the header count per request.
	MaxHeaderLines = 64
	// MaxBodyBytes bounds the Content-Length a request may declare.
	MaxBodyBytes = 1 << 20
	// MaxLineBytes bounds one request or header line.
	MaxLineBytes = 8 << 10
)

// SendfileThreshold is the body size from which a static file with a
// materialized copy on disk is streamed with sendfile(2) instead of
// being held in user space.
const SendfileThreshold = 64 << 10

// StaticBody picks the body a static path is answered with: the
// materialized file's shared handle, streamed with sendfile(2), for a
// corpus file of at least SendfileThreshold bytes, otherwise the corpus
// bytes from Lookup; false for a path outside the corpus. The choice
// reads only the path, so a large materialized file's bytes never enter
// the server's memory. key is the corpus's own copy of the path: path
// may be a view of a reused request buffer, so caches key with key.
// Every web server answers static paths through it, and only a Bytes
// body is ever cached.
func StaticBody(files *loadgen.FileSet, path string) (body Body, key string, ok bool) {
	key, size, disk, ok := files.Resolve(path)
	if !ok {
		return Body{}, "", false
	}
	if disk != nil && size >= SendfileThreshold {
		return Body{File: disk, Size: size}, key, true
	}
	b, _ := files.Lookup(key)
	return Body{Bytes: b}, key, true
}

// Request is one parsed request. A server keeps one per connection (or
// per flow) and parses into it again and again: Path and Query are
// views of a buffer the Request owns, valid until the next ReadRequest
// into it, so a server reads a connection's next request only after the
// current response is written.
type Request struct {
	Method    string // GET or POST
	Path      string
	Query     string
	Body      []byte // a POST's payload; other declared bodies are consumed and dropped
	KeepAlive bool   // the client did not ask to close

	// target holds the request target that Path and Query view, and
	// spills a line longer than the reader's buffer.
	target []byte
	body   []byte // backs Body
}

// Dynamic reports whether the request is answered by a rendered page —
// a form POST or a benchmark page — rather than a static file.
func (r *Request) Dynamic() bool {
	return r.Method == "POST" || fscript.IsDynamicPath(r.Path)
}

// ReadRequest reads one request — request line, headers, and the
// Content-Length-delimited body — from br into r, reusing r's buffers:
// a request that fits the reader's buffer is parsed without allocating.
// It is the framing step of every keep-alive round: after a successful
// return br is positioned exactly at the next request. Only GET and
// POST over HTTP/1.x are accepted; anything else, or anything past the
// caps, is an error and the caller drops the connection without a
// response.
func ReadRequest(br *bufio.Reader, r *Request) error {
	*r = Request{target: r.target[:0], body: r.body}
	line, err := readLine(br, &r.target)
	if err != nil {
		return err // EOF, reset, timeout, or oversized
	}
	method, target, proto, ok := requestFields(line)
	if !ok {
		return fmt.Errorf("httpkit: malformed request line %q", line)
	}
	switch string(method) {
	case "GET":
		r.Method = "GET"
	case "POST":
		r.Method = "POST"
	default:
		return fmt.Errorf("httpkit: unsupported method %q", method)
	}
	if !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
		return fmt.Errorf("httpkit: unsupported protocol %q", proto)
	}
	// The one copy: the target moves to the front of r.target (it may
	// already be in there, spilled, which copy's overlap rule allows).
	r.target = append(r.target[:0], target...)
	keepAlive, contentLen, err := readHeaders(br, &r.target)
	if err != nil {
		return err
	}
	r.KeepAlive = keepAlive
	t := unsafe.String(&r.target[0], len(r.target))
	r.Path, r.Query, _ = strings.Cut(t, "?")
	// Consume the declared body whatever the method, so keep-alive
	// framing survives; only POSTs keep it.
	if contentLen == 0 {
		return nil
	}
	if r.Method != "POST" {
		_, err := br.Discard(contentLen)
		return err
	}
	if cap(r.body) < contentLen {
		r.body = make([]byte, contentLen)
	}
	if _, err := io.ReadFull(br, r.body[:contentLen]); err != nil {
		return err
	}
	r.Body = r.body[:contentLen]
	return nil
}

// readLine reads one \n-terminated line, refusing lines longer than
// MaxLineBytes: unlike bufio.Reader.ReadString, a hostile stream with
// no newline fails at the cap instead of accumulating without bound. A
// line that fits br's buffer is returned in place, valid until the next
// read; a longer one is appended to *spill, whose bytes are kept.
func readLine(br *bufio.Reader, spill *[]byte) ([]byte, error) {
	frag, err := br.ReadSlice('\n')
	if err == nil && len(frag) <= MaxLineBytes {
		return frag, nil
	}
	mark := len(*spill)
	for {
		*spill = append(*spill, frag...)
		if len(*spill)-mark > MaxLineBytes {
			*spill = (*spill)[:mark]
			return nil, fmt.Errorf("httpkit: line exceeds %d bytes", MaxLineBytes)
		}
		if err == nil {
			return (*spill)[mark:], nil
		}
		if err != bufio.ErrBufferFull {
			*spill = (*spill)[:mark]
			return nil, err
		}
		frag, err = br.ReadSlice('\n')
	}
}

// requestFields splits a request line into its three space-separated
// fields, with strings.Fields' notion of space; false unless there are
// exactly three.
func requestFields(line []byte) (method, target, proto []byte, ok bool) {
	var f [3][]byte
	n := 0
	for i := skip(line, 0, true); i < len(line); n++ {
		if n == len(f) {
			return nil, nil, nil, false
		}
		j := skip(line, i, false)
		f[n] = line[i:j]
		i = skip(line, j, true)
	}
	return f[0], f[1], f[2], n == len(f)
}

// skip returns the index of the first rune at or after i that is space
// when space is false, or not space when it is true.
func skip(line []byte, i int, space bool) int {
	for i < len(line) {
		r, w := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += w
	}
	return i
}

// readHeaders consumes header lines through the terminating blank line,
// honoring the two headers these servers speak: `Connection: close` and
// `Content-Length` (validated against MaxBodyBytes). Line length and
// header count are both capped. A long line spills into *spill past its
// current bytes, which are kept.
func readHeaders(br *bufio.Reader, spill *[]byte) (keepAlive bool, contentLen int, err error) {
	keepAlive = true
	sawContentLen := false
	mark := len(*spill)
	for n := 0; ; n++ {
		if n >= MaxHeaderLines {
			return false, 0, fmt.Errorf("httpkit: more than %d header lines", MaxHeaderLines)
		}
		h, err := readLine(br, spill)
		if err != nil {
			return false, 0, err
		}
		*spill = (*spill)[:mark] // h stays readable until the next readLine
		h = bytes.TrimSpace(h)
		if len(h) == 0 {
			return keepAlive, contentLen, nil
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		k, v = bytes.TrimSpace(k), bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Connection")):
			if bytes.EqualFold(v, []byte("close")) {
				keepAlive = false
			}
		case bytes.EqualFold(k, []byte("Content-Length")):
			cl, err := strconv.Atoi(string(v))
			if err != nil || cl < 0 {
				return false, 0, fmt.Errorf("httpkit: bad content length %q", v)
			}
			if cl > MaxBodyBytes {
				return false, 0, fmt.Errorf("httpkit: content length %d exceeds limit", cl)
			}
			// Duplicate Content-Length headers with conflicting values are
			// the request-smuggling shape: two parsers on the path framing
			// the body differently. Only byte-identical repeats pass
			// (RFC 7230 §3.3.2 allows collapsing those).
			if sawContentLen && cl != contentLen {
				return false, 0, fmt.Errorf("httpkit: conflicting content lengths %d and %d", contentLen, cl)
			}
			sawContentLen = true
			contentLen = cl
		}
	}
}

// Body is what a response carries: a static body (Bytes), a
// materialized file (File and Size), or a page from RenderDynamic.
type Body struct {
	// Bytes is a static body whose length comes from a bounded set (a
	// corpus file, a cached compression): its header is interned and
	// both go out in one writev(2), never copied.
	Bytes []byte
	// File is a materialized file's shared handle, of which bytes
	// [0, Size) are streamed with sendfile(2) so they never enter user
	// space. Its offset is never moved.
	File *os.File
	Size int64
	// page is a rendered page in a pooled buffer. Its length depends on
	// the request — a POST confirmation echoes the path — so its header
	// is rendered per response and never interned; the buffer returns to
	// the pool once the page is written.
	page *fscript.Buf
}

// RenderDynamic renders the page a dynamic request is answered with —
// the confirmation for a form POST, otherwise the benchmark page for
// the path — into a pooled buffer that Respond recycles. work is the
// pages' default loop bound.
func RenderDynamic(pages *fscript.BenchPages, r *Request, work int64) (Body, error) {
	buf := fscript.GetBuf()
	if r.Method == "POST" {
		buf.B = appendPostConfirm(buf.B, r.Path, len(r.Body))
		return Body{page: buf}, nil
	}
	out, err := pages.RenderTo(buf.B, r.Path, r.Query, work)
	if err != nil {
		fscript.PutBuf(buf)
		return Body{}, err
	}
	buf.B = out
	return Body{page: buf}, nil
}

// Respond writes one complete response, announcing Connection: close
// when last is set. A last response is the connection's final frame
// (netkit.Conn.FinalFrame): it leaves with the FIN, and the caller
// writes nothing more and closes the connection. It is the only
// response writer of the web and image servers. A write whose deadline
// expires is counted as a shed by the connection plane; the caller only
// has to retire the connection.
func Respond(c *netkit.Conn, code int, status, ctype string, body Body, last bool) error {
	if last {
		c.FinalFrame()
	}
	switch {
	case body.page != nil:
		// The header is rendered into the page buffer's spare capacity,
		// so a rendered response allocates nothing either.
		buf := body.page
		n := len(buf.B)
		buf.B = appendHead(buf.B, code, status, ctype, n, last)
		err := c.WriteVec(buf.B[n:], buf.B[:n])
		fscript.PutBuf(buf)
		return err
	case body.File != nil:
		return c.SendFile(StaticHeader(code, status, ctype, int(body.Size), last), body.File, body.Size)
	default:
		return c.WriteVec(StaticHeader(code, status, ctype, len(body.Bytes), last), body.Bytes)
	}
}

// notFoundPage is the web servers' 404 page.
var notFoundPage = []byte("<html><body><h1>404 Not Found</h1></body></html>")

// NotFound answers a request for an unknown path. The response
// announces the close and is the connection's final frame: a 404 ends
// the conversation.
func NotFound(c *netkit.Conn) error {
	return Respond(c, 404, "Not Found", "text/html", Body{Bytes: notFoundPage}, true)
}

// appendHead appends a response head — status line, Content-Type,
// Content-Length, Connection: close when closing, blank line. Every
// header this package produces comes from here, so rendered, interned
// and canned responses cannot drift apart on the wire.
func appendHead(dst []byte, code int, status, ctype string, contentLen int, closing bool) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, status...)
	dst = append(dst, "\r\nContent-Type: "...)
	dst = append(dst, ctype...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(contentLen), 10)
	dst = append(dst, "\r\n"...)
	if closing {
		dst = append(dst, "Connection: close\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// Render builds a complete HTTP/1.1 response in one contiguous buffer.
func Render(code int, status, ctype string, body []byte) []byte {
	out := appendHead(make([]byte, 0, 128+len(body)), code, status, ctype, len(body), false)
	return append(out, body...)
}

// headerKey identifies one immutable header blob: static responses reuse
// a tiny set of (code, content type, length) combinations, so the blobs
// are rendered once and shared forever.
type headerKey struct {
	code       int
	status     string
	ctype      string
	contentLen int
	closing    bool // Connection: close baked in
}

var (
	headerMu    sync.RWMutex
	headerBlobs = map[headerKey][]byte{}
)

// StaticHeader returns the pre-serialized header block for a response of
// the given shape — byte-identical to the head Render produces (and,
// with close set, to what WithCloseHeader inserts). Blobs are immutable
// and cached per (code, status, ctype, length, close): the hot path is
// one read-locked map lookup with no allocation. Only bounded-length
// bodies may use it, or the cache grows without bound. Callers must
// treat the returned slice as read-only.
func StaticHeader(code int, status, ctype string, contentLen int, close bool) []byte {
	key := headerKey{code: code, status: status, ctype: ctype, contentLen: contentLen, closing: close}
	headerMu.RLock()
	blob := headerBlobs[key]
	headerMu.RUnlock()
	if blob != nil {
		return blob
	}
	blob = appendHead(nil, code, status, ctype, contentLen, close)
	headerMu.Lock()
	// First writer wins so every caller shares one blob.
	if prev, ok := headerBlobs[key]; ok {
		blob = prev
	} else {
		headerBlobs[key] = blob
	}
	headerMu.Unlock()
	return blob
}

// appendPostConfirm appends the confirmation page every server answers
// form submissions with.
func appendPostConfirm(dst []byte, path string, bodyLen int) []byte {
	dst = append(dst, "<html><body><p>POST "...)
	dst = append(dst, path...)
	dst = append(dst, ": received "...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	return append(dst, " bytes</p></body></html>"...)
}

// RenderPostConfirm builds the complete POST confirmation response.
func RenderPostConfirm(path string, bodyLen int) []byte {
	return Render(200, "OK", "text/html", appendPostConfirm(nil, path, bodyLen))
}

// unavailable is the canned overload answer, rendered once: admission
// control sheds with an explicit 503 announcing Connection: close, so
// clients back off and reconnect instead of hanging on a silent drop.
var unavailable = WithCloseHeader(Render(503, "Service Unavailable", "text/html",
	[]byte("<html><body><h1>503 Service Unavailable</h1></body></html>")))

// Unavailable returns the shared 503 shed response (read-only; callers
// only write it to a socket).
func Unavailable() []byte { return unavailable }

// WithCloseHeader copies a rendered response with a Connection: close
// header inserted before the blank line, announcing the close so
// keep-alive clients reconnect instead of failing. The input is left
// untouched.
func WithCloseHeader(resp []byte) []byte {
	i := bytes.Index(resp, []byte("\r\n\r\n"))
	if i < 0 {
		return resp
	}
	const hdr = "Connection: close\r\n"
	out := make([]byte, 0, len(resp)+len(hdr))
	out = append(out, resp[:i+2]...)
	out = append(out, hdr...)
	out = append(out, resp[i+2:]...)
	return out
}
