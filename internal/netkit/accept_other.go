//go:build !linux || 386

package netkit

import "net"

// acceptor accepts through the listener itself where accept4(2) is not
// wired up.
type acceptor struct{ ln net.Listener }

func (a *acceptor) open(ln net.Listener) error { a.ln = ln; return nil }

func (a *acceptor) close() {}

func (a *acceptor) accept(p *Plane) (*Conn, error) {
	nc, err := a.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newConn(p, nc), nil
}
