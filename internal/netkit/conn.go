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
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// readerSize is the pooled bufio.Reader's buffer size — one page, the
// same size the servers used to allocate per connection.
const readerSize = 4096

var (
	connPool   = sync.Pool{New: func() any { return newPooledConn() }}
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

	// sock is the accepted socket's pollable file and its net.Conn view
	// (nc points at it), kept inside the pooled Conn so an accept
	// allocates no net.Conn of its own. Unused for adopted conns.
	sock fileConn

	// writeTimeout, when > 0, arms a write deadline before every write
	// through the Conn (Write, WriteVec, SendFile), so a dead or
	// zero-window client cannot pin the writing goroutine forever —
	// the write-side twin of the owners' read deadlines. A write the
	// deadline cuts off is counted as the plane's shed.
	writeTimeout time.Duration

	// rec is the record {c} every flow on the connection is admitted
	// with (FluxPlane's Inject and Continue). Its content never changes
	// while the Conn is live, and a connection has one flow at a time,
	// so the flows share it instead of allocating one each.
	rec [1]any

	// rc is the transport's RawConn, fetched once when the Conn is
	// built; nil for a transport with no file descriptor (net.Pipe).
	// Every write goes through it, and w holds the write loops' state
	// on the Conn, so a write allocates nothing.
	rc syscall.RawConn
	w  writeState

	// final marks the next frame as the connection's last (FinalFrame);
	// the write that sends it clears it.
	final bool

	// Served counts requests answered on this connection; the owner
	// increments it to enforce keep-alive caps.
	Served int

	// closed makes Close idempotent: only the first caller returns the
	// state to the pools, so a plane sweep racing the owning flow's own
	// close cannot double-recycle.
	closed atomic.Bool
}

// newPooledConn builds the part of a Conn that survives recycling.
func newPooledConn() *Conn {
	c := new(Conn)
	c.rec[0] = c
	return c
}

// newConn wraps an adopted connection (dialed, or a test's pipe) in
// pooled state, with the connection's RawConn when it has one.
func newConn(p *Plane, nc net.Conn) *Conn {
	var rc syscall.RawConn
	if sc, ok := nc.(syscall.Conn); ok {
		rc, _ = sc.SyscallConn()
	}
	c := connPool.Get().(*Conn)
	c.init(p, nc, rc)
	return c
}

// newSockConn wraps an accepted socket's pollable file in pooled state.
// The Conn's own view of the file is its net.Conn, so the file and its
// RawConn are all the connection allocates.
func newSockConn(p *Plane, f *os.File) *Conn {
	rc, _ := f.SyscallConn()
	c := connPool.Get().(*Conn)
	c.sock.f = f
	c.init(p, &c.sock, rc)
	return c
}

// init readies a Conn taken from the pool for nc.
func (c *Conn) init(p *Plane, nc net.Conn, rc syscall.RawConn) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(nc)
	c.nc = nc
	c.rc = rc
	c.br = br
	c.plane = p
	c.Served = 0
	c.final = false
	c.writeTimeout = 0
	if p != nil {
		c.writeTimeout = p.cfg.WriteTimeout
	}
	c.closed.Store(false)
}

// transport is what the plane's shutdown sweep closes: the socket
// itself, never the pooled Conn, which may have been recycled onto
// another connection by the time the sweep runs.
func (c *Conn) transport() io.Closer {
	if c.nc == &c.sock {
		return c.sock.f
	}
	return c.nc
}

// Reader returns the connection's pooled buffered reader.
func (c *Conn) Reader() *bufio.Reader { return c.br }

// NetConn returns the underlying network connection. For an accepted
// socket it is a view kept inside the pooled Conn, valid until Close.
func (c *Conn) NetConn() net.Conn { return c.nc }

// Write writes directly to the underlying connection, under the plane's
// write deadline when one is configured.
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.write(p)
	return n, c.countTimeout(err)
}

// write is Write without the shed accounting, for the plane's own shed
// response: that shed is counted once, under the reason it was shed for.
func (c *Conn) write(p []byte) (int, error) {
	c.armWriteDeadline()
	n, err := c.writev(p, nil, c.takeFinal())
	return int(n), err
}

// FinalFrame marks the next frame written through the Conn (Write,
// WriteVec or SendFile) as the connection's last. The write half-closes
// the connection once the frame is out: on Linux a vectored frame goes
// out corked and shutdown(SHUT_WR) runs in the same step, so the
// response and the FIN leave in one segment; elsewhere the frame is
// followed by CloseWrite. The owner writes nothing more, and its Close
// then only releases the descriptor. A transport with no half-close
// (net.Pipe) writes the frame as any other.
func (c *Conn) FinalFrame() { c.final = true }

// takeFinal reads and clears the FinalFrame mark for the write starting.
func (c *Conn) takeFinal() bool {
	final := c.final
	c.final = false
	return final
}

// closeWrite ends a final frame on a transport the RawConn steps do
// not write through: the Conn leaves the plane, then the transport is
// half-closed where it has a half-close.
func (c *Conn) closeWrite() {
	c.leave()
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
}

// leave releases the plane's live tracking of the connection. It runs
// before the FIN is sent — at a final frame's half-close, or at Close —
// so a peer that has seen the FIN never finds the connection still
// counted live, and MaxConns never sheds on a connection its client
// already considers gone.
func (c *Conn) leave() {
	if c.plane != nil {
		c.plane.untrack(c)
	}
}

// countTimeout counts a write whose deadline expired as the plane
// shedding a stalled client ("write-timeout") and passes err through.
// The owner's error path then retires the connection, so every failed
// write is counted exactly once, here, by whichever server wrote it.
func (c *Conn) countTimeout(err error) error {
	if c.plane != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		c.plane.CountShed("write-timeout")
	}
	return err
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

// WriteVec writes head and body as one response frame, vectored: both
// slices go to the kernel in one writev(2) through the connection's
// RawConn, so the response is never assembled in user space — the
// zero-copy static path. A transport without a RawConn gets sequential
// writes. The frame either goes out whole or the transport is torn
// down: a short write (a write deadline expiring on a stalled client
// mid-frame) closes the underlying socket immediately, so a later owner
// cannot resume the connection mid-frame and corrupt the keep-alive
// stream. The pooled Conn state itself stays with the owner, whose
// error path retires it through Close as usual.
func (c *Conn) WriteVec(head, body []byte) error {
	c.armWriteDeadline()
	want := int64(len(head) + len(body))
	n, err := c.writev(head, body, c.takeFinal())
	if err == nil && n != want {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Tear the transport down mid-frame: the conn must never carry
		// another response after a partial one.
		_ = c.nc.Close()
		return c.countTimeout(fmt.Errorf("netkit: vectored write %d/%d bytes: %w", n, want, err))
	}
	return nil
}

// SendFile writes head, then bytes [0, size) of f, as one response
// frame. On a socket the head is queued with sendmsg(MSG_MORE) so it
// leaves in the body's first segment, and the body moves with
// sendfile(2) at explicit offsets — the bytes never enter user space,
// and f's own offset is neither read nor moved, so one handle serves
// every connection at once. Elsewhere the body is copied with ReadAt.
// Like WriteVec, a short transfer tears the transport down so the conn
// cannot be reused mid-frame.
func (c *Conn) SendFile(head []byte, f *os.File, size int64) error {
	c.armWriteDeadline()
	sent, err := c.sendfile(head, f, size, c.takeFinal())
	if err != nil {
		_ = c.nc.Close()
		return c.countTimeout(fmt.Errorf("netkit: sendfile %d/%d bytes: %w", sent, int64(len(head))+size, err))
	}
	return nil
}

// sendCopy is SendFile on a transport without sendfile(2).
func (c *Conn) sendCopy(head []byte, f *os.File, size int64, final bool) (int64, error) {
	var n int
	if len(head) > 0 {
		var err error
		if n, err = c.nc.Write(head); err != nil {
			return int64(n), err
		}
	}
	m, err := io.Copy(c.nc, io.NewSectionReader(f, 0, size))
	if err == nil && m != size {
		err = io.ErrUnexpectedEOF
	}
	if final && err == nil {
		c.closeWrite()
	}
	return int64(n) + m, err
}

// SetReadDeadline bounds reads through the connection (including the
// pooled reader). Owners set it before parsing a request so a client
// that trickles bytes or parks mid-request cannot pin the connection
// forever, and clear it (the zero time) once the request is framed.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Close closes the connection and returns its pooled state. It is
// idempotent; the first call wins. The Conn leaves the plane here, before
// the socket closes, unless a final frame already took it out.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.leave()
	err := c.nc.Close()
	br := c.br
	c.br = nil
	c.nc = nil
	c.sock.f = nil
	c.plane = nil
	c.rc = nil
	c.Served = 0
	br.Reset(nil) // drop the conn reference before pooling the buffer
	readerPool.Put(br)
	connPool.Put(c)
	return err
}

// fileConn is an accepted socket's net.Conn: a view of its pollable
// *os.File, so reads, writes and deadlines run on the runtime poller
// as a *net.TCPConn's do, and a deadline error is a net.Error timeout
// (wrapped in an *os.PathError). The addresses are looked up only when
// asked for; no server asks.
type fileConn struct{ f *os.File }

func (fc *fileConn) Read(b []byte) (int, error)         { return fc.f.Read(b) }
func (fc *fileConn) Write(b []byte) (int, error)        { return fc.f.Write(b) }
func (fc *fileConn) Close() error                       { return fc.f.Close() }
func (fc *fileConn) LocalAddr() net.Addr                { return fc.addr(syscall.Getsockname) }
func (fc *fileConn) RemoteAddr() net.Addr               { return fc.addr(syscall.Getpeername) }
func (fc *fileConn) SetDeadline(t time.Time) error      { return fc.f.SetDeadline(t) }
func (fc *fileConn) SetReadDeadline(t time.Time) error  { return fc.f.SetReadDeadline(t) }
func (fc *fileConn) SetWriteDeadline(t time.Time) error { return fc.f.SetWriteDeadline(t) }

// addr asks the kernel for one of the socket's addresses; nil once the
// socket is closed, as for a closed *net.TCPConn.
func (fc *fileConn) addr(get func(fd int) (syscall.Sockaddr, error)) net.Addr {
	rc, err := fc.f.SyscallConn()
	if err != nil {
		return nil
	}
	var sa syscall.Sockaddr
	if rc.Control(func(fd uintptr) { sa, _ = get(int(fd)) }) != nil {
		return nil
	}
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return &net.TCPAddr{IP: sa.Addr[:], Port: sa.Port}
	case *syscall.SockaddrInet6:
		a := &net.TCPAddr{IP: sa.Addr[:], Port: sa.Port}
		if ifi, err := net.InterfaceByIndex(int(sa.ZoneId)); err == nil {
			a.Zone = ifi.Name
		}
		return a
	}
	return nil
}
