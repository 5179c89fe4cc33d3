package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
)

// failKind classifies why a request did not count as served.
type failKind int

const (
	failIO   failKind = iota // dial, write or read error, including the deadline passing
	failShed                 // the server answered 503
	failStatus
	failLength
	failBody
	failFraming // a response the client could not parse
	numFailKinds
)

var failKindNames = [numFailKinds]string{"io", "shed_503", "status", "length", "body", "framing"}

// readBufSize holds any response head together with every body below it
// in one piece; larger bodies stream through it.
const readBufSize = 256 << 10

// client is one generator connection. It talks to the server through a
// plain blocking socket on the goroutine's own thread (the caller pins
// it), not through the Go netpoller: a request then costs the generator
// one write and one read, and its scheduling does not hinge on the Go
// runtime's spinning and parking, which proved to be the larger part of
// the run-to-run noise. It parses just enough HTTP to frame and verify
// the responses of the server under test.
type client struct {
	sa   syscall.SockaddrInet4
	fd   int // -1: not connected
	buf  []byte
	r, w int // buf[r:w] holds bytes read and not yet consumed

	// portsExhausted records a dial refused with EADDRNOTAVAIL: the
	// ephemeral port range ran out, so the run measured the kernel's
	// TIME_WAIT table and not the server.
	portsExhausted bool
}

// ioTimeout bounds every single read and write: a request still
// unanswered after it is a failure, not a wait.
var ioTimeout = syscall.NsecToTimeval(int64(unfinishedGrace))

func newClient(addr string) (*client, error) {
	tcp, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	c := &client{fd: -1, buf: make([]byte, readBufSize)}
	c.sa.Port = tcp.Port
	copy(c.sa.Addr[:], tcp.IP.To4())
	return c, nil
}

func (c *client) connected() bool { return c.fd >= 0 }

func (c *client) dial() error {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		return err
	}
	syscall.CloseOnExec(fd)
	err = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	if err == nil {
		err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &ioTimeout)
	}
	if err == nil {
		err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &ioTimeout)
	}
	if err == nil {
		err = syscall.Connect(fd, &c.sa)
		// An interrupted connect goes on in the background; asking again
		// reports how it ended.
		for err == syscall.EINTR || err == syscall.EALREADY {
			err = syscall.Connect(fd, &c.sa)
		}
		if err == syscall.EISCONN {
			err = nil
		}
	}
	if err != nil {
		syscall.Close(fd)
		if err == syscall.EADDRNOTAVAIL {
			c.portsExhausted = true
		}
		return fmt.Errorf("dial: %w", err)
	}
	c.fd, c.r, c.w = fd, 0, 0
	return nil
}

func (c *client) close() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
		c.fd = -1
	}
}

// awaitEOF waits for the server's FIN before the client closes, so that
// the server is the side that closed first and the TIME_WAIT entry does
// not pin one of the client's ephemeral ports.
func (c *client) awaitEOF() {
	if c.fd >= 0 {
		_, _ = c.read(c.buf[:1]) // EOF, or a stray byte: the connection is discarded either way
	}
}

// read and write retry the interrupted call: a socket with a timeout set
// is not restarted by the kernel after a signal.
func (c *client) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

func (c *client) write(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

func (c *client) fill() error {
	if c.w == len(c.buf) {
		return fmt.Errorf("response head exceeds %d bytes", len(c.buf))
	}
	n, err := c.read(c.buf[c.w:])
	c.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

var (
	headEnd       = []byte("\r\n\r\n")
	statusPrefix  = []byte("HTTP/1.1 ")
	contentLength = []byte("\r\nContent-Length: ")
	connClose     = []byte("\r\nConnection: close\r\n")
)

// roundTrip sends one op and reads its response. It returns the body
// length, whether the server announced the close, and how the response
// failed verification (ok false). checkBody compares the body bytes in
// full. An error means the connection is no longer framed and must be
// discarded.
func (c *client) roundTrip(o *op, checkBody bool) (n int, srvClose bool, fail failKind, ok bool, err error) {
	if err = c.write(o.req); err != nil {
		return 0, false, failIO, false, err
	}
	end := -1
	for end < 0 {
		if c.w > c.r {
			end = bytes.Index(c.buf[c.r:c.w], headEnd)
		}
		if end < 0 {
			if err = c.fill(); err != nil {
				return 0, false, failIO, false, err
			}
		}
	}
	head := c.buf[c.r : c.r+end+2] // keeps the last header's CRLF so every header ends in one
	c.r += end + 4
	if !bytes.HasPrefix(head, statusPrefix) || len(head) < 12 {
		return 0, false, failFraming, false, fmt.Errorf("bad status line %q", head[:min(len(head), 32)])
	}
	status := int(head[9]-'0')*100 + int(head[10]-'0')*10 + int(head[11]-'0')
	i := bytes.Index(head, contentLength)
	if i < 0 {
		return 0, false, failFraming, false, errors.New("response without Content-Length")
	}
	clen := 0
	for _, ch := range head[i+len(contentLength):] {
		if ch < '0' || ch > '9' {
			break
		}
		clen = clen*10 + int(ch-'0')
	}
	srvClose = bytes.Contains(head, connClose)

	ok = true
	switch {
	case status == 503:
		fail, ok = failShed, false
	case status != o.status:
		fail, ok = failStatus, false
	case !o.lengthOK(clen):
		fail, ok = failLength, false
	}
	check := checkBody && ok
	bodyOK, err := c.readBody(o, clen, check)
	if err != nil {
		return 0, srvClose, failIO, false, err
	}
	if check && !bodyOK {
		fail, ok = failBody, false
	}
	return clen, srvClose, fail, ok, nil
}

// readBody consumes clen body bytes, comparing them with the op's
// expectation when check is set. Bodies that fit the buffer are compared
// in one piece; larger ones chunk by chunk as they stream in.
func (c *client) readBody(o *op, clen int, check bool) (bool, error) {
	if clen <= len(c.buf)-c.r {
		for c.w-c.r < clen {
			if err := c.fill(); err != nil {
				return false, err
			}
		}
		body := c.buf[c.r : c.r+clen]
		c.r += clen
		if c.r == c.w {
			c.r, c.w = 0, 0
		}
		return !check || o.bodyOK(body), nil
	}
	match := true
	off := 0
	for off < clen {
		if c.r == c.w {
			c.r, c.w = 0, 0
			if err := c.fill(); err != nil {
				return false, err
			}
		}
		chunk := c.buf[c.r:min(c.w, c.r+clen-off)]
		if check && match {
			// Only fixed-body ops are this large (lengthOK already tied
			// clen to len(o.body)).
			match = bytes.Equal(chunk, o.body[off:off+len(chunk)])
		}
		off += len(chunk)
		c.r += len(chunk)
	}
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	return match, nil
}
