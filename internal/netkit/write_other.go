//go:build !linux

package netkit

import (
	"net"
	"os"
)

// writeState is the reusable two-element scatter list for writev; kept
// on the Conn (not a local) so net.Buffers.WriteTo — which takes the
// slice's address and consumes it — never forces a heap allocation.
type writeState struct {
	vec     net.Buffers
	vecBack [2][]byte
}

// writev writes head then body through net.Buffers: one writev(2) on a
// TCP connection, sequential writes elsewhere. A final frame is then
// half-closed with CloseWrite where the transport has it.
func (c *Conn) writev(head, body []byte, final bool) (int64, error) {
	w := &c.w
	w.vecBack[0], w.vecBack[1] = head, body
	w.vec = net.Buffers(w.vecBack[:])
	n, err := w.vec.WriteTo(c.nc)
	w.vec = nil
	w.vecBack[0], w.vecBack[1] = nil, nil
	if final && err == nil {
		c.closeWrite()
	}
	return n, err
}

// sendfile copies the body where sendfile(2) at an explicit offset is
// not wired up.
func (c *Conn) sendfile(head []byte, f *os.File, size int64, final bool) (int64, error) {
	return c.sendCopy(head, f, size, final)
}
