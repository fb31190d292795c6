// Package pfxunet implements the PF_XUNET protocol family: the
// native-mode ATM socket stack of the paper.
//
// The stack is deliberately non-multiplexing (§1): one socket per
// virtual circuit, and "the Virtual Circuit Identifier (VCI) provides a
// single index into a table of protocol control blocks, considerably
// simplifying the software structure". The PCB table here is a direct
// array indexed by VCI — no hash demultiplexing — and the Table 1
// receive-path costs are charged at the same points the paper counted:
// PCB indexing, socket state checks, address fixup, and sbappend
// bookkeeping plus 8 instructions per mbuf walked.
//
// Bind and connect take the 16-bit cookie capability handed out by the
// signaling entity during call setup; the socket layer "passes up the
// cookie and VCI to sighost for these two calls" through the
// pseudo-device, and sighost tears the call down (marking the socket
// unusable via soisdisconnected) if authentication fails.
//
// A received frame costs no allocation: Recv copies it into a buffer the
// socket owns and reuses, and RecvChain hands over the mbuf chain itself.
package pfxunet

import (
	"errors"
	"fmt"

	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// Errors from the socket layer.
var (
	errBadVCI       = errors.New("pfxunet: VCI out of range")
	errVCIBusy      = errors.New("pfxunet: VCI already bound to a socket")
	errSockState    = errors.New("pfxunet: operation invalid in this socket state")
	errDisconnected = errors.New("pfxunet: socket has been disconnected")
)

// recvBufLimit bounds a socket's receive buffer in bytes (the classic
// socket-buffer high-water mark); frames past it are dropped and
// counted, as a datagram stack does.
const recvBufLimit = 64 * 1024

// sockState tracks the BSD-style socket lifecycle.
type sockState uint8

const (
	stateCreated sockState = iota
	stateBound
	stateConnected
	stateDisconnected
	stateClosed
)

// Family is the PF_XUNET protocol family instance on one machine.
type Family struct {
	m *kern.Machine

	// pcbs is the VCI-indexed protocol control block table: the
	// non-multiplexed fast path.
	pcbs [int(atm.MaxVCI) + 1]*Socket

	// DroppedNoSocket counts frames that arrived on a VCI with no bound
	// socket; DroppedOverflow counts receive-buffer overflows.
	DroppedNoSocket, DroppedOverflow uint64
}

// New installs the family on a machine and registers it for
// soisdisconnected commands from the pseudo-device.
func New(m *kern.Machine) *Family {
	f := &Family{m: m}
	m.RegisterFamily(f)
	m.Obs.Func("pfxunet.drops.no_socket", func() uint64 { return f.DroppedNoSocket })
	m.Obs.Func("pfxunet.drops.overflow", func() uint64 { return f.DroppedOverflow })
	return f
}

// Socket is one PF_XUNET socket (SOCK_DGRAM over a virtual circuit).
type Socket struct {
	f     *Family
	owner *kern.Proc
	fd    int
	state sockState
	lease atm.Lease // the grant of the VCI it is bound or connected to

	recvQ     sim.Queue[*mbuf.Chain]
	recvBytes int
	recv      func(*mbuf.Chain) // nil: frames queue in recvQ for Recv
	rbuf      []byte            // the frame Recv returned last

	// tc is the causal-trace context of the call this socket carries
	// (zero when the call is untraced); outbound frames open child
	// spans under it.
	tc trace.Context

	// FramesIn and FramesOut count datagrams through this socket.
	FramesIn, FramesOut uint64
}

// SetTrace attaches the call's trace context to the socket, so frames
// sent on it become child spans of the call. Applications get the
// context from the VCI_FOR_CONN delivery (signaling.Connection.Trace).
func (s *Socket) SetTrace(tc trace.Context) { s.tc = tc }

// Socket creates an unbound PF_XUNET socket owned by p, consuming a
// file descriptor.
func (f *Family) Socket(p *kern.Proc) (*Socket, error) {
	s := &Socket{f: f, owner: p}
	fd, err := p.AllocFD(s)
	if err != nil {
		return nil, err
	}
	s.fd = fd
	return s, nil
}

// KernelSocket is a socket the kernel holds for p outside its descriptor
// table, as for sighost's PVCs, whose number grows with the mesh and not
// with the clients §10's limit is about; Close does not release it. A
// non-nil recv owns each frame, handed over as it arrives, not to Recv.
func (f *Family) KernelSocket(p *kern.Proc, recv func(*mbuf.Chain)) *Socket {
	return &Socket{f: f, owner: p, fd: -1, recv: recv}
}

// Bind directs the stack to deliver data received on vci to this
// socket (the paper's Figure 5 server flow). The cookie and VCI are
// passed up to the signaling entity for authentication.
func (s *Socket) Bind(vci atm.VCI, cookie uint16) error { return s.attach(vci, cookie, stateBound) }

// Connect binds the VCI to this socket for sending (the Figure 6
// client flow). The cookie is passed up for authentication.
func (s *Socket) Connect(vci atm.VCI, cookie uint16) error {
	return s.attach(vci, cookie, stateConnected)
}

// attach gives a fresh socket vci's PCB, under the VCI's latest grant,
// installs a bound socket's Orc receive handler, and posts the
// bind/connect indication through the pseudo-device.
func (s *Socket) attach(vci atm.VCI, cookie uint16, to sockState) error {
	switch {
	case s.state != stateCreated:
		return errSockState
	case vci == 0 || vci > atm.MaxVCI:
		return fmt.Errorf("%w: %v", errBadVCI, vci)
	case s.f.pcbs[vci] != nil:
		return fmt.Errorf("%w: %v", errVCIBusy, vci)
	}
	s.f.pcbs[vci], s.lease, s.state = s, s.f.m.Orc.Leases(vci), to
	kind := kern.MsgConnect
	if to == stateBound {
		s.f.m.Orc.SetHandler(vci, s.f.input)
		kind = kern.MsgBind
	}
	if s.f.m.Dev != nil {
		s.f.m.Dev.PostUp(kern.KMsg{Kind: kind, VCI: vci, Cookie: cookie, PID: s.owner.PID})
	}
	return nil
}

// Send transmits one frame on the connected VCI. Matching Table 1, the
// PF_XUNET and Orc send routines "simply call the next layer down
// without touching the data or the header, thus incurring zero cost".
func (s *Socket) Send(data []byte) error {
	return s.SendTraced(data, s.tc)
}

// SendTraced is Send under an explicit trace context, for callers whose
// context is per-message rather than per-socket (the sighost peer PVC
// carries many calls' messages over one socket).
func (s *Socket) SendTraced(data []byte, tc trace.Context) error {
	return s.send(s.f.m.Pool.FromBytes(data), tc)
}

// SendChain transmits a prebuilt mbuf chain (zero-copy path). The chain
// is consumed whatever the outcome.
func (s *Socket) SendChain(chain *mbuf.Chain) error { return s.send(chain, s.tc) }

// send hands the frame down, opening its transit span first: a child of
// the call (or message) context that the receiving stack's input
// routine will close on delivery. Unsampled contexts cost one branch
// and no allocation. A socket that cannot send releases the frame.
func (s *Socket) send(chain *mbuf.Chain, tc trace.Context) error {
	if s.state != stateConnected {
		chain.Release()
		if s.state == stateDisconnected {
			return errDisconnected
		}
		return errSockState
	}
	if tc.Sampled() {
		now := s.f.m.E.Now()
		chain.TC = s.f.m.TraceC.StartSpanAt(tc, "pfxunet", "frame", now)
		chain.TCAt = now
	}
	s.FramesOut++
	return s.f.m.Orc.Output(s.lease.VCI, chain)
}

// input is the family's receive upcall from the Orc driver: the Table 1
// PF_XUNET receive path.
func (f *Family) input(vci atm.VCI, frame *mbuf.Chain) {
	// A traced frame's transit span ends here, at delivery or at a drop,
	// so an aborted frame still shows where it died.
	if frame.TC.Sampled() {
		f.m.TraceC.EndSpan(frame.TC)
	}
	m := f.m.Meter
	// PCB lookup: a single array index, the non-multiplexed win.
	m.Charge(cost.PFXunet, cost.PFXunetPCBIndex)
	s := f.pcbs[vci]
	if s == nil || s.state == stateClosed {
		f.DroppedNoSocket++
		frame.Release()
		return
	}
	// Socket state checks and address fixup.
	m.Charge(cost.PFXunet, cost.PFXunetStateChecks)
	if s.state == stateDisconnected {
		frame.Release()
		return
	}
	m.Charge(cost.PFXunet, cost.PFXunetAddrFixup)
	// sbappend: enqueue onto the socket buffer, walking the chain.
	m.Charge(cost.PFXunet, cost.PFXunetSbAppend)
	m.ChargePerMbuf(cost.PFXunet, frame.Count())
	if s.recvBytes+frame.Len() > recvBufLimit {
		f.DroppedOverflow++
		frame.Release()
		return
	}
	s.FramesIn++
	if s.recv != nil {
		s.recv(frame)
		return
	}
	s.recvBytes += frame.Len()
	s.recvQ.Put(frame)
}

// Recv blocks the owning process until a frame arrives and flattens it
// into the socket's own buffer, as recv(2) fills the caller's: the frame
// is nil if empty and valid until the next Recv (Close leaves it be),
// which scribbles over it first under -race. It returns errDisconnected
// once the socket has been marked unusable and the buffer is drained.
func (s *Socket) Recv() ([]byte, error) {
	mbuf.Scribble(s.rbuf)
	chain, err := s.RecvChain()
	if err != nil {
		return nil, err
	}
	s.rbuf = chain.AppendTo(s.rbuf[:0])
	chain.Release()
	if len(s.rbuf) == 0 {
		return nil, nil
	}
	return s.rbuf, nil
}

// RecvChain is Recv without flattening: the caller owns the chain.
func (s *Socket) RecvChain() (*mbuf.Chain, error) {
	if s.state == stateClosed || s.state == stateCreated {
		return nil, errSockState
	}
	// A disconnect closes recvQ: what it buffered drains, then Get fails.
	chain, ok := s.recvQ.Get(s.owner.SP)
	if !ok {
		return nil, errDisconnected
	}
	s.recvBytes -= chain.Len()
	return chain, nil
}

// Close releases the socket and its descriptor.
func (s *Socket) Close() { _ = s.owner.CloseFD(s.fd) }

// KClose implements kern.FDObject: invoked by Close, process exit, and
// kernel cleanup. Closing a bound or connected socket tells the
// signaling entity so it can tear the call down ("When either client or
// server closes a PF_XUNET socket, the signaling entity will
// automatically tear down the associated call").
func (s *Socket) KClose() {
	if s.state == stateClosed {
		return
	}
	hadVCI := s.state == stateBound || s.state == stateConnected || s.state == stateDisconnected
	wasDisc := s.state == stateDisconnected
	s.state = stateClosed
	if hadVCI && s.f.pcbs[s.lease.VCI] == s {
		s.f.pcbs[s.lease.VCI] = nil
		s.f.m.Orc.ClearVC(s.lease)
	}
	// Flush the receive buffer, as soclose's sbflush does: the frames
	// still queued have no reader left.
	s.recvQ.Close()
	for chain, ok := s.recvQ.TryGet(); ok; chain, ok = s.recvQ.TryGet() {
		chain.Release()
	}
	if hadVCI && !wasDisc && s.f.m.Dev != nil {
		s.f.m.Dev.PostUp(kern.KMsg{Kind: kern.MsgClose, VCI: s.lease.VCI, PID: s.owner.PID})
	}
}

// Soisdisconnected implements kern.ProtoFamily: the pseudo-device's
// write routine marks the socket on vci unusable and wakes blocked
// readers.
func (f *Family) Soisdisconnected(vci atm.VCI) {
	if vci > atm.MaxVCI {
		return
	}
	s := f.pcbs[vci]
	if s == nil || s.state == stateClosed {
		return
	}
	s.state = stateDisconnected
	s.recvQ.Close()
	f.m.Orc.ClearVC(s.lease)
}

// Stale lists the VCIs with a socket bound or connected under a lease
// holds rejects, for the drain audit.
func (f *Family) Stale(holds func(atm.Lease) bool) (out []atm.VCI) {
	for v, s := range f.pcbs {
		if s != nil && !holds(s.lease) {
			out = append(out, atm.VCI(v))
		}
	}
	return out
}
