//go:build !linux || !(amd64 || arm64)

package rtnet

import "errors"

// setNoCheck is never reached here: no carrier sends trains.
func setNoCheck(*Carrier, int) error { return errors.New("rtnet: no trains on this platform") }

// rxVector is how many datagrams one receive syscall can return.
func rxVector(*Carrier) int { return 1 }
