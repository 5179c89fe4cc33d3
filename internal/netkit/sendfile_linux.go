package netkit

import (
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
)

// sendfileTCP runs the send loop under the socket's RawConn, which
// waits for writability between steps and enforces the write deadline.
func (c *Conn) sendfileTCP(tc *net.TCPConn, head []byte, f *os.File, size int64) (int64, error) {
	if c.rc == nil {
		rc, err := tc.SyscallConn()
		if err != nil {
			return 0, err
		}
		c.rc = rc
	}
	if c.sendStep == nil {
		c.sendStep = c.sendfileStep
	}
	c.sf = sendfileArgs{head: head, fd: int(f.Fd()), end: size}
	err := c.rc.Write(c.sendStep)
	runtime.KeepAlive(f)
	sf := c.sf
	c.sf = sendfileArgs{}
	if err == nil {
		err = sf.err
	}
	return sf.sent, err
}

// sendfileStep sends as much of the frame as the socket takes, reporting
// false when it would block.
func (c *Conn) sendfileStep(fd uintptr) bool {
	sf := &c.sf
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
			sf.err = os.NewSyscallError("sendmsg", err)
			return true
		}
		sf.head = sf.head[n:]
		sf.sent += int64(n)
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
			sf.err = os.NewSyscallError("sendfile", err)
			return true
		case n == 0:
			sf.err = io.ErrUnexpectedEOF // the file is shorter than size
			return true
		}
		sf.sent += int64(n)
	}
	return true
}

// maxSendfileChunk bounds one sendfile(2) call, as the standard library
// does, so a large body cannot hold the socket in one call.
const maxSendfileChunk = 4 << 20
