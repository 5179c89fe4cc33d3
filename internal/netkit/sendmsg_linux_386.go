package netkit

import (
	"syscall"
	"unsafe"
)

// sysSendmsg is socketcall(2)'s number for sendmsg (SYS_SENDMSG in
// linux/net.h).
const sysSendmsg = 16

// sendmsg is sendmsg(2), which linux/386 reaches through socketcall(2).
// msg must live on the heap (the Conn's writeState), where the kernel's
// pointer to it stays valid.
func sendmsg(fd uintptr, msg *syscall.Msghdr, flags int) (uintptr, syscall.Errno) {
	args := [3]uintptr{fd, uintptr(unsafe.Pointer(msg)), uintptr(flags)}
	n, _, e := syscall.Syscall(syscall.SYS_SOCKETCALL, sysSendmsg, uintptr(unsafe.Pointer(&args)), 0)
	return n, e
}
