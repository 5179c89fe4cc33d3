package netkit

import (
	"io"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// writeState carries one write through the Conn's RawConn. The steps
// are bound once per pooled Conn and the arguments live here, so the
// write loops allocate nothing.
type writeState struct {
	vecStep  func(fd uintptr) bool
	sendStep func(fd uintptr) bool

	bufs  [2][]byte        // writev: bytes not yet sent
	iov   [2]syscall.Iovec // writev: the scatter list handed to the kernel
	msg   syscall.Msghdr   // writev of a final frame: sendmsg's header over iov
	sf    sendfileArgs     // sendfile
	final bool             // the frame is the connection's last
	sent  int64            // bytes sent by the current write
	err   error            // the current write's failure
}

// sendfileArgs carries one SendFile through sendfileStep.
type sendfileArgs struct {
	head     []byte // head bytes not yet sent
	fd       int    // the file's descriptor
	off, end int64  // body bytes [off, end) not yet sent
}

// writev writes head then body with writev(2) under the RawConn, which
// waits for writability between steps and enforces the write deadline.
// A final frame goes out with sendmsg(2) and MSG_MORE instead, and the
// same step then shuts the socket down for writing: the kernel sends the
// corked tail with the FIN, so the response and the FIN leave in one
// segment. It returns the bytes sent; only an error leaves the frame
// short.
func (c *Conn) writev(head, body []byte, final bool) (int64, error) {
	if c.rc == nil {
		return c.writeSeq(head, body, final)
	}
	w := &c.w
	if w.vecStep == nil {
		w.vecStep = c.writevStep
	}
	w.bufs, w.final = [2][]byte{head, body}, final
	err := c.rc.Write(w.vecStep)
	sent := w.sent
	if err == nil {
		err = w.err
	}
	w.bufs, w.iov, w.msg, w.final, w.sent, w.err = [2][]byte{}, [2]syscall.Iovec{}, syscall.Msghdr{}, false, 0, nil
	return sent, err
}

// writeSeq is writev on a transport without a RawConn.
func (c *Conn) writeSeq(head, body []byte, final bool) (int64, error) {
	n, err := c.nc.Write(head)
	if err == nil && len(body) > 0 {
		var m int
		m, err = c.nc.Write(body)
		n += m
	}
	if final && err == nil {
		c.closeWrite()
	}
	return int64(n), err
}

// writevStep sends as much of the frame as the socket takes, reporting
// false when it would block.
func (c *Conn) writevStep(fd uintptr) bool {
	w := &c.w
	for {
		k := 0
		for _, b := range w.bufs {
			if len(b) > 0 {
				w.iov[k].Base = &b[0]
				w.iov[k].SetLen(len(b))
				k++
			}
		}
		if k == 0 {
			if w.final {
				c.halfClose(fd)
			}
			return true
		}
		op := "writev"
		var n uintptr
		var e syscall.Errno
		if w.final {
			op = "sendmsg"
			w.msg.Iov = &w.iov[0]
			setIovlen(&w.msg.Iovlen, k)
			n, e = sendmsg(fd, &w.msg, syscall.MSG_MORE)
		} else {
			n, _, e = syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(k))
		}
		switch e {
		case 0:
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
			continue
		default:
			w.err = os.NewSyscallError(op, e)
			return true
		}
		if n == 0 {
			w.err = io.ErrUnexpectedEOF // as the standard library's writev loop
			return true
		}
		w.sent += int64(n)
		for i := range w.bufs {
			m := min(int(n), len(w.bufs[i]))
			w.bufs[i] = w.bufs[i][m:]
			n -= uintptr(m)
		}
	}
}

// sendfile runs the send loop under the RawConn; a final frame shuts
// the socket down for writing after the body, in the same step. A
// transport without a RawConn gets sendCopy.
func (c *Conn) sendfile(head []byte, f *os.File, size int64, final bool) (int64, error) {
	if c.rc == nil {
		return c.sendCopy(head, f, size, final)
	}
	w := &c.w
	if w.sendStep == nil {
		w.sendStep = c.sendfileStep
	}
	w.sf, w.final = sendfileArgs{head: head, fd: int(f.Fd()), end: size}, final
	err := c.rc.Write(w.sendStep)
	runtime.KeepAlive(f)
	sent := w.sent
	if err == nil {
		err = w.err
	}
	w.sf, w.final, w.sent, w.err = sendfileArgs{}, false, 0, nil
	return sent, err
}

// sendfileStep sends as much of the frame as the socket takes, reporting
// false when it would block.
func (c *Conn) sendfileStep(fd uintptr) bool {
	w := &c.w
	sf := &w.sf
	for len(sf.head) > 0 {
		flags := syscall.MSG_MORE
		if sf.off == sf.end {
			flags = 0 // no body follows to push the head out
		}
		n, err := syscall.SendmsgN(int(fd), sf.head, nil, nil, flags)
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
			continue
		case err != nil:
			w.err = os.NewSyscallError("sendmsg", err)
			return true
		}
		sf.head = sf.head[n:]
		w.sent += int64(n)
	}
	for sf.off < sf.end {
		// The kernel advances sf.off, not the file's offset.
		n, err := syscall.Sendfile(int(fd), sf.fd, &sf.off, int(min(sf.end-sf.off, maxSendfileChunk)))
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
			continue
		case err != nil:
			w.err = os.NewSyscallError("sendfile", err)
			return true
		case n == 0:
			w.err = io.ErrUnexpectedEOF // the file is shorter than size
			return true
		}
		w.sent += int64(n)
	}
	if w.final {
		c.halfClose(fd)
	}
	return true
}

// halfClose ends a final frame inside its write step: the Conn leaves
// the plane, then shutdown(SHUT_WR) sends the FIN. An error means the
// peer is already gone, and the owner's Close follows either way.
func (c *Conn) halfClose(fd uintptr) {
	c.leave()
	_ = syscall.Shutdown(int(fd), syscall.SHUT_WR)
}

// setIovlen sets a Msghdr's iovec count, a uint64 on 64-bit platforms
// and a uint32 on 32-bit ones.
func setIovlen[T ~uint32 | ~uint64](p *T, n int) { *p = T(n) }

// maxSendfileChunk bounds one sendfile(2) call, as the standard library
// does, so a large body cannot hold the socket in one call.
const maxSendfileChunk = 4 << 20
