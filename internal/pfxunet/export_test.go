package pfxunet

// ActiveVCIs counts VCIs with live sockets.
func (f *Family) ActiveVCIs() int {
	n := 0
	for _, s := range f.pcbs {
		if s != nil {
			n++
		}
	}
	return n
}

// Queued reports the frames buffered for Recv.
func (s *Socket) Queued() int { return s.recvQ.Len() }

// The socket errors, for the external tests.
var (
	ErrBadVCI       = errBadVCI
	ErrVCIBusy      = errVCIBusy
	ErrSockState    = errSockState
	ErrDisconnected = errDisconnected
)
