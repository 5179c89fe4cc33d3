//go:build linux && !386

package netkit

import (
	"net"
	"os"
	"syscall"
)

// linux/386 reaches accept4 only through socketcall(2), so it accepts
// as other platforms do (accept_other.go).

// acceptor accepts with accept4(2) into the pooled Conn. It works on a
// pollable dup of the listener, because a *net.TCPListener's own
// RawConn refuses Read, and it asks the kernel for no peer address, so
// an accept builds no Sockaddr, TCPAddr, netFD or TCPConn. The socket
// options are set once, on the listener (setSockOpts).
type acceptor struct {
	f    *os.File
	rc   syscall.RawConn
	step func(fd uintptr) bool // acceptStep, bound once
	fd   int                   // the step's accepted descriptor
	err  error                 // the step's failure
}

func (a *acceptor) open(ln net.Listener) error {
	f, err := ln.(*net.TCPListener).File()
	if err != nil {
		return err
	}
	if a.rc, err = f.SyscallConn(); err != nil {
		f.Close()
		return err
	}
	if err = a.rc.Control(setSockOpts); err != nil {
		f.Close()
		return err
	}
	a.f = f
	a.step = a.acceptStep
	return nil
}

func (a *acceptor) close() { a.f.Close() }

// accept waits for and accepts one connection. It fails with the
// kernel's error (EMFILE, ENFILE, ENOBUFS, ...) or once the listener
// is closed.
func (a *acceptor) accept(p *Plane) (*Conn, error) {
	if err := a.rc.Read(a.step); err != nil {
		return nil, err
	}
	if a.err != nil {
		err := a.err
		a.err = nil
		return nil, err
	}
	return newSockConn(p, os.NewFile(uintptr(a.fd), "tcp")), nil
}

// acceptStep accepts one connection, reporting false when none is
// pending. Like the standard library it retries EINTR and a connection
// aborted before it was accepted.
func (a *acceptor) acceptStep(fd uintptr) bool {
	for {
		nfd, _, e := syscall.Syscall6(syscall.SYS_ACCEPT4, fd, 0, 0, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
		switch e {
		case 0:
			a.fd = int(nfd)
			return true
		case syscall.EINTR, syscall.ECONNABORTED:
			continue
		case syscall.EAGAIN:
			return false
		default:
			a.err = os.NewSyscallError("accept4", e)
			return true
		}
	}
}

// Keep-alive timing the standard library applies to accepted TCP
// connections: first probe after 15 s idle, then every 15 s, 9 probes.
const (
	keepAliveIdleSecs     = 15
	keepAliveIntervalSecs = 15
	keepAliveCount        = 9
)

// setSockOpts sets, on the listening socket, the options net's accept
// sets on each accepted one: TCP_NODELAY and keep-alive probes at the
// standard library's defaults. Linux copies a listener's options into
// every socket it accepts, so an accept makes no setsockopt(2) call.
// Like net, it ignores their errors.
func setSockOpts(fd uintptr) {
	s := int(fd)
	_ = syscall.SetsockoptInt(s, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	_ = syscall.SetsockoptInt(s, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1)
	_ = syscall.SetsockoptInt(s, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAliveIdleSecs)
	_ = syscall.SetsockoptInt(s, syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAliveIntervalSecs)
	_ = syscall.SetsockoptInt(s, syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, keepAliveCount)
}
