// Package netkit is the shared connection plane of the macro servers:
// one listener/accept loop, pooled per-connection state and read
// buffers, and an admission layer with explicit overload control.
//
// Before it existed, every server hand-rolled the same accept loop and
// buffered its connections through a private ready channel whose
// `default:` branch silently dropped work under pressure. The plane
// treats connection readiness as a first-class pipeline stage instead:
// accepted connections are admitted through a single callback — for the
// Flux servers, the runtime's external-admission path
// (runtime.SourceHandle.Inject) — and load beyond a queue-depth
// watermark (Gate) or a live-connection cap (Config.MaxConns) is shed
// with an explicit 503 and a ConnShed event on the Observer plane,
// never queued unboundedly and never dropped silently.
package netkit

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// readerSize is the pooled bufio.Reader's buffer size — one page, the
// same size the servers used to allocate per connection.
const readerSize = 4096

var (
	connPool   = sync.Pool{New: func() any { return new(Conn) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerSize) }}
)

// Conn is the pooled per-connection state every server shares: the
// network connection, its buffered reader, and keep-alive bookkeeping.
// A Conn has exactly one owner at a time — the flow or goroutine
// currently servicing it — and returns itself and its reader to the
// package pools on Close, so a steady stream of connections recycles
// state instead of allocating a fresh reader buffer per accept.
type Conn struct {
	nc    net.Conn
	br    *bufio.Reader
	plane *Plane

	// writeTimeout, when > 0, arms a write deadline before every write
	// through the Conn (Write, WriteVec, SendFile), so a dead or
	// zero-window client cannot pin the writing goroutine forever —
	// the write-side twin of the owners' read deadlines.
	writeTimeout time.Duration

	// vec and vecBack are the reusable two-element scatter list for
	// WriteVec; kept on the Conn (not a local) so net.Buffers.WriteTo —
	// which takes the slice's address and consumes it — never forces a
	// heap allocation on the static hot path.
	vec     net.Buffers
	vecBack [2][]byte

	// Served counts requests answered on this connection; the owner
	// increments it to enforce keep-alive caps.
	Served int

	// closed makes Close idempotent: only the first caller returns the
	// state to the pools, so a plane sweep racing the owning flow's own
	// close cannot double-recycle.
	closed atomic.Bool
}

// newConn wraps an accepted connection in pooled state.
func newConn(p *Plane, nc net.Conn) *Conn {
	c := connPool.Get().(*Conn)
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(nc)
	c.nc = nc
	c.br = br
	c.plane = p
	c.Served = 0
	c.writeTimeout = 0
	if p != nil {
		c.writeTimeout = p.cfg.WriteTimeout
	}
	c.closed.Store(false)
	return c
}

// Reader returns the connection's pooled buffered reader.
func (c *Conn) Reader() *bufio.Reader { return c.br }

// NetConn returns the underlying network connection.
func (c *Conn) NetConn() net.Conn { return c.nc }

// Write writes directly to the underlying connection, under the plane's
// write deadline when one is configured.
func (c *Conn) Write(p []byte) (int, error) {
	c.armWriteDeadline()
	return c.nc.Write(p)
}

// armWriteDeadline starts the write-timeout clock for the next write.
// Deadlines are re-armed per write, so a slow but progressing client is
// bounded per response, not per connection lifetime.
func (c *Conn) armWriteDeadline() {
	if c.writeTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// SetWriteDeadline bounds writes through the connection directly;
// owners that manage their own per-message deadlines (the BitTorrent
// peer writer) use it instead of the plane-configured WriteTimeout.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// WriteVec writes head and body as one response frame, vectored: on a
// TCP connection both slices go to the kernel in a single writev(2), so
// the response is never assembled in user space — the zero-copy static
// path. Non-TCP connections degrade to sequential writes inside
// net.Buffers. The frame either goes out whole or the transport is torn
// down: a short write (a write deadline expiring on a stalled client
// mid-frame) closes the underlying socket immediately, so a later owner
// cannot resume the connection mid-frame and corrupt the keep-alive
// stream. The pooled Conn state itself stays with the owner, whose
// error path retires it through Close as usual.
func (c *Conn) WriteVec(head, body []byte) error {
	c.armWriteDeadline()
	c.vecBack[0], c.vecBack[1] = head, body
	c.vec = net.Buffers(c.vecBack[:])
	want := int64(len(head) + len(body))
	n, err := c.vec.WriteTo(c.nc)
	c.vec = nil
	c.vecBack[0], c.vecBack[1] = nil, nil
	if err == nil && n != want {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Tear the transport down mid-frame: the conn must never carry
		// another response after a partial one.
		_ = c.nc.Close()
		return fmt.Errorf("netkit: vectored write %d/%d bytes: %w", n, want, err)
	}
	return nil
}

// SendFile writes head, then streams size bytes from f straight to the
// socket. On a TCP connection the body moves with sendfile(2) via
// TCPConn.ReadFrom — the bytes never enter user space — and elsewhere
// it degrades to io.Copy. Like WriteVec, a short transfer tears the
// transport down so the conn cannot be reused mid-frame.
func (c *Conn) SendFile(head []byte, f *os.File, size int64) error {
	c.armWriteDeadline()
	if len(head) > 0 {
		if n, err := c.nc.Write(head); err != nil {
			_ = c.nc.Close()
			return fmt.Errorf("netkit: sendfile header %d/%d bytes: %w", n, len(head), err)
		}
	}
	// An *io.LimitedReader wrapping an *os.File is the shape
	// TCPConn.ReadFrom recognizes for sendfile(2).
	lr := io.LimitedReader{R: f, N: size}
	var n int64
	var err error
	if tc, ok := c.nc.(*net.TCPConn); ok {
		n, err = tc.ReadFrom(&lr)
	} else {
		n, err = io.Copy(c.nc, &lr)
	}
	if err == nil && n != size {
		err = io.ErrShortWrite
	}
	if err != nil {
		_ = c.nc.Close()
		return fmt.Errorf("netkit: sendfile body %d/%d bytes: %w", n, size, err)
	}
	return nil
}

// SetReadDeadline bounds reads through the connection (including the
// pooled reader). Owners set it before parsing a request so a client
// that trickles bytes or parks mid-request cannot pin the connection
// forever, and clear it (the zero time) once the request is framed.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Close closes the connection and returns its pooled state. It is
// idempotent; the first call wins. The plane's live-connection tracking
// is released here, before the socket closes: a peer that has seen the
// FIN never finds the connection still counted live, so MaxConns never
// sheds on a connection its client already considers gone.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.plane != nil {
		c.plane.untrack(c)
	}
	err := c.nc.Close()
	br := c.br
	c.br = nil
	c.nc = nil
	c.plane = nil
	c.Served = 0
	br.Reset(nil) // drop the conn reference before pooling the buffer
	readerPool.Put(br)
	connPool.Put(c)
	return err
}
