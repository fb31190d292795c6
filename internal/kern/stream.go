package kern

import (
	"time"

	"xunet/internal/memnet"
)

// KListener and KStream wrap the internetwork's stream service with
// file-descriptor accounting, so the per-process table limits of §10
// bite exactly where they did in the original: one descriptor per
// listening socket, one per accepted or dialed connection, and closed
// connection descriptors parked in TIME_WAIT for 2·MSL.

// KListener is a listening stream socket owned by a process.
type KListener struct {
	p  *Proc
	fd int
	l  *memnet.StreamListener
}

// Listen binds a listening stream socket on port, consuming a
// descriptor.
func (p *Proc) Listen(port uint16) (*KListener, error) {
	kl := &KListener{p: p}
	fd, err := p.AllocFD(kl)
	if err != nil {
		return nil, err
	}
	l, err := p.M.IP.ListenStream(port)
	if err != nil {
		_ = p.CloseFD(fd)
		return nil, err
	}
	kl.fd, kl.l = fd, l
	return kl, nil
}

// Accept blocks for an inbound connection and allocates a descriptor
// for it. With no free descriptor it fails with EMFILE before
// accepting, leaving the connection queued — the §10 stall.
func (kl *KListener) Accept() (*KStream, error) { return kl.AcceptTimeout(-1) }

// AcceptTimeout is Accept bounded by d (d < 0 means no bound).
func (kl *KListener) AcceptTimeout(d time.Duration) (*KStream, error) {
	ks := &KStream{p: kl.p}
	fd, err := kl.p.AllocFD(ks)
	if err != nil {
		return nil, err
	}
	s, ok, timedOut := kl.l.AcceptTimeout(kl.p.SP, d)
	if !ok {
		_ = kl.p.CloseFD(fd)
		if timedOut {
			return nil, memnet.ErrDialTimeout
		}
		return nil, memnet.ErrStreamClosed
	}
	ks.fd, ks.s = fd, s
	return ks, nil
}

// Proc reports the owning process.
func (kl *KListener) Proc() *Proc { return kl.p }

// Close releases the listener and its descriptor (no TIME_WAIT for
// listening sockets).
func (kl *KListener) Close() { _ = kl.p.CloseFD(kl.fd) }

// KClose implements FDObject.
func (kl *KListener) KClose() {
	if kl.l != nil {
		kl.l.Close()
	}
}

// KStream is a connected stream socket owned by a process.
type KStream struct {
	p  *Proc
	fd int
	s  *memnet.Stream
}

// Dial opens a stream connection, consuming a descriptor.
func (p *Proc) Dial(raddr memnet.IPAddr, port uint16) (*KStream, error) {
	ks := &KStream{p: p}
	fd, err := p.AllocFD(ks)
	if err != nil {
		return nil, err
	}
	s, err := p.M.IP.DialStream(p.SP, raddr, port)
	if err != nil {
		_ = p.CloseFD(fd)
		return nil, err
	}
	ks.fd, ks.s = fd, s
	return ks, nil
}

// Send queues one framed message.
func (ks *KStream) Send(msg []byte) error { return ks.s.Send(msg) }

// Recv blocks for the next message; ok is false at EOF or reset.
func (ks *KStream) Recv() ([]byte, bool) { return ks.s.Recv(ks.p.SP) }

// RecvTimeout is Recv bounded by d (d < 0 means no bound).
func (ks *KStream) RecvTimeout(d time.Duration) (msg []byte, ok, timedOut bool) {
	return ks.s.RecvTimeout(ks.p.SP, d)
}

// Proc reports the owning process.
func (ks *KStream) Proc() *Proc { return ks.p }

// Close closes the connection; the descriptor slot parks in TIME_WAIT.
func (ks *KStream) Close() { _ = ks.p.CloseFD(ks.fd) }

// KClose implements FDObject.
func (ks *KStream) KClose() {
	if ks.s != nil {
		ks.s.Close()
	}
}

// holdsTimeWait marks connected stream descriptors for TIME_WAIT
// retention. Descriptors of failed dials and reset connections release
// immediately, as TCP only enters TIME_WAIT from an orderly close.
func (ks *KStream) holdsTimeWait() bool { return ks.s != nil && !ks.s.Reset() }
