//go:build linux && !386

package netkit

import (
	"syscall"
	"unsafe"
)

// sendmsg is sendmsg(2).
func sendmsg(fd uintptr, msg *syscall.Msghdr, flags int) (uintptr, syscall.Errno) {
	n, _, e := syscall.Syscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(msg)), uintptr(flags))
	return n, e
}
