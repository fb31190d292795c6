//go:build linux && (amd64 || arm64)

package rtnet

import "syscall"

// setNoCheck sets SO_NO_CHECK on c's socket to v. While it is 1 the
// kernel refuses every UDP_SEGMENT send with EINVAL.
func setNoCheck(c *Carrier, v int) error {
	var serr error
	if err := c.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, v)
	}); err != nil {
		return err
	}
	return serr
}

// rxVector is how many datagrams one receive syscall can return.
func rxVector(c *Carrier) int { return len(c.rxb.hdrs) }
