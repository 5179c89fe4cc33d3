//go:build !linux

package netkit

import (
	"net"
	"os"
)

// sendfileTCP copies the body where sendfile(2) at an explicit offset
// is not wired up.
func (c *Conn) sendfileTCP(_ *net.TCPConn, head []byte, f *os.File, size int64) (int64, error) {
	return c.sendCopy(head, f, size)
}
