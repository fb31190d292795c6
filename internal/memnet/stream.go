package memnet

import (
	"errors"
	"fmt"
	"time"

	"xunet/internal/cost"
	"xunet/internal/sim"
)

// The stream service is the simulation's TCP stand-in: reliable,
// ordered, connection-oriented delivery of framed messages, with a
// three-way open, FIN close, retransmission, and RST for connections
// nobody is listening for. The signaling IPC of the paper ("we used
// TCP/IP for IPC, in essence building a special-purpose RPC facility")
// runs over these streams in the simulated world.

// Stream segment flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagDATA
	flagRST
)

const segHeaderSize = 13 // flags(1) sport(2) dport(2) seq(4) ack(4)

// Stream tuning constants.
const (
	streamRTO        = 250 * time.Millisecond
	streamMaxRetries = 8
	streamWindow     = 32
)

// Errors from the stream service.
var (
	errStreamReset  = errors.New("memnet: stream reset")       // torn down by the peer, or the retransmissions ran out
	ErrStreamClosed = errors.New("memnet: stream closed")      // used after a local Close
	errConnRefused  = errors.New("memnet: connection refused") // no listener on the dialed port
	ErrDialTimeout  = errors.New("memnet: dial timed out")     // an unanswered connection attempt
)

type segment struct {
	flags    byte
	sport    uint16
	dport    uint16
	seq, ack uint32
	data     []byte
}

// header returns the segment's wire header; the data follows it.
func (s *segment) header() (out [segHeaderSize]byte) {
	out[0] = s.flags
	out[1], out[2] = byte(s.sport>>8), byte(s.sport)
	out[3], out[4] = byte(s.dport>>8), byte(s.dport)
	out[5], out[6], out[7], out[8] = byte(s.seq>>24), byte(s.seq>>16), byte(s.seq>>8), byte(s.seq)
	out[9], out[10], out[11], out[12] = byte(s.ack>>24), byte(s.ack>>16), byte(s.ack>>8), byte(s.ack)
	return out
}

// decodeHeader parses a wire header, leaving data for the caller.
func decodeHeader(b *[segHeaderSize]byte) segment {
	return segment{
		flags: b[0],
		sport: uint16(b[1])<<8 | uint16(b[2]),
		dport: uint16(b[3])<<8 | uint16(b[4]),
		seq:   uint32(b[5])<<24 | uint32(b[6])<<16 | uint32(b[7])<<8 | uint32(b[8]),
		ack:   uint32(b[9])<<24 | uint32(b[10])<<16 | uint32(b[11])<<8 | uint32(b[12]),
	}
}

// sendSegment transmits one segment from this node.
func (nd *Node) sendSegment(dst IPAddr, seg segment) {
	hdr := seg.header()
	chain := nd.Pool.FromBytes(seg.data)
	chain.Prepend(hdr[:]) // into the first mbuf's leading space
	_ = nd.SendChain(dst, protoStream, chain)
}

type connKey struct {
	lport uint16
	raddr IPAddr
	rport uint16
}

type streamLayer struct {
	node      *Node
	listeners map[uint16]*StreamListener
	conns     map[connKey]*Stream
	// ports counts live connections per local port so portBusy — called
	// by every ephemeral-port probe — is an indexed lookup instead of a
	// scan over every connection on the node. All conns mutations go
	// through addConn/delConn to keep the index exact.
	ports map[uint16]int
	segs  sim.FreeList[loopSeg] // loopback segments
}

func newStreamLayer(nd *Node) *streamLayer {
	sl := &streamLayer{
		node:      nd,
		listeners: make(map[uint16]*StreamListener),
		conns:     make(map[connKey]*Stream),
		ports:     make(map[uint16]int),
	}
	nd.BindProto(protoStream, sl.input)
	return sl
}

func (sl *streamLayer) addConn(s *Stream) {
	sl.conns[s.key] = s
	sl.ports[s.key.lport]++
}

// delConn removes the connection under key, if still present, and
// releases its claim on the local port. Idempotent: teardown can race
// a test's simulated peer death, and only the first removal counts.
func (sl *streamLayer) delConn(key connKey) {
	if _, ok := sl.conns[key]; !ok {
		return
	}
	delete(sl.conns, key)
	if n := sl.ports[key.lport] - 1; n <= 0 {
		delete(sl.ports, key.lport)
	} else {
		sl.ports[key.lport] = n
	}
}

func (sl *streamLayer) portBusy(port uint16) bool {
	if _, ok := sl.listeners[port]; ok {
		return true
	}
	return sl.ports[port] > 0
}

// StreamListener accepts inbound stream connections on one port.
type StreamListener struct {
	node     *Node
	port     uint16
	backlog  sim.Queue[*Stream]
	onAccept func(*Stream) Receiver
	closed   bool
}

// Receiver takes a connection's news in the events that deliver it, in
// place of a process blocked in DialStream or Recv.
type Receiver interface {
	// Dialed ends Dial's handshake: nil at the SYN-ACK, errConnRefused
	// at an RST, errStreamReset once the SYNs run out.
	Dialed(err error)
	Deliver(msg []byte) // the next in-order message, the receiver's to keep
	EOF()               // the peer closed or reset; once
}

// ListenStream binds a listener to port.
func (nd *Node) ListenStream(port uint16) (*StreamListener, error) {
	if nd.streams.portBusy(port) {
		return nil, fmt.Errorf("%w: stream port %d on %s", errPortInUse, port, nd.Name)
	}
	l := &StreamListener{node: nd, port: port}
	nd.streams.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection arrives; ok is false once the
// listener is closed.
func (l *StreamListener) Accept(p *sim.Proc) (*Stream, bool) {
	return l.backlog.Get(p)
}

// OnAccept hands each connection to fn as it opens, not to Accept; what
// arrives on it goes to the Receiver fn returns.
func (l *StreamListener) OnAccept(fn func(*Stream) Receiver) { l.onAccept = fn }

// AcceptTimeout is Accept with a timeout (d < 0 means none).
func (l *StreamListener) AcceptTimeout(p *sim.Proc, d time.Duration) (s *Stream, ok, timedOut bool) {
	return l.backlog.GetTimeout(p, d)
}

// Close unbinds the listener. Established connections are unaffected.
func (l *StreamListener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.node.streams.listeners, l.port)
	l.backlog.Close()
}

// Stream is one reliable framed-message connection endpoint, packed to
// fit the 384-byte size class: every call allocates several.
type Stream struct {
	node *Node
	key  connKey
	// Retransmits counts timer-driven resends, for experiments.
	Retransmits uint32

	dialWaiter *sim.Proc // DialStream's process
	dialErr    error
	recv       Receiver // nil: arrivals queue in inbox for Recv

	// Send side. Sequence numbers [unackBase, sendSeq) are in flight,
	// at most streamWindow of them. sendq holds the messages behind
	// them, oldest first — those in flight, then those waiting for window
	// space — so a cumulative ACK pops from its head. The FIN occupies a
	// sequence number (always the last) but no sendq entry.
	sendSeq   uint32 // next sequence number to assign
	unackBase uint32 // lowest unacked seq
	sendq     sim.Ring[[]byte]
	sendq0    [2][]byte // sendq's first backing array: an RPC has one message in flight
	rtimer    sim.Timer
	finSeq    uint32 // seq the FIN occupies, 0 if none

	// Receive side. ooo holds segments that arrived ahead of a gap, by
	// sequence number; it is made on the first, and most connections
	// never see one.
	recvNext uint32
	ooo      map[uint32]segment
	inbox    sim.Queue[[]byte]

	// peer is the other end of a loopback connection, linked by the SYN
	// that opens it and unlinked when either end finishes. Until then it
	// sits in conns under key's mirror: what the lookup would return.
	peer *Stream

	// The flags and the retry count share a word.
	established  bool
	dialing      bool
	finQueued    bool
	localClosed  bool
	remoteClosed bool
	reset        bool
	toreDown     bool
	retries      uint8
	teardown     func(reset bool)
}

// newStream is the connection's one allocation: the handle escapes to
// the kernel layer, the user library and the signaling entity, so the
// record cannot be recycled without a generation check at every use —
// instead everything a connection needs is embedded in it.
func newStream(nd *Node, key connKey) *Stream {
	s := &Stream{node: nd, key: key, sendSeq: 1, unackBase: 1, recvNext: 1}
	s.sendq = sim.RingOn(s.sendq0[:])
	return s
}

// inFlight counts unacknowledged sequence numbers, the FIN included.
func (s *Stream) inFlight() uint32 { return s.sendSeq - s.unackBase }

// queued counts messages still waiting for window space. Once the FIN
// is out there are none: it is sent only after the last of them.
func (s *Stream) queued() int {
	if s.finSeq != 0 {
		return 0
	}
	return s.sendq.Len() - int(s.inFlight())
}

// Dial sends the SYN of a connection from this node and returns it; r
// learns how the handshake ends and takes what arrives. It fails with
// errNoPort, at once, when the node holds every ephemeral port.
func (nd *Node) Dial(raddr IPAddr, rport uint16, r Receiver) (*Stream, error) {
	lport, err := nd.ephemeralPort()
	if err != nil {
		return nil, err
	}
	s := newStream(nd, connKey{lport: lport, raddr: raddr, rport: rport})
	nd.streams.addConn(s)
	s.dialing, s.recv = true, r
	s.sendSegment(flagSYN, 0, 0, nil)
	s.armRetransmit()
	return s, nil
}

// DialStream is Dial for a process, which blocks through the handshake
// and reads with Recv.
func (nd *Node) DialStream(p *sim.Proc, raddr IPAddr, rport uint16) (*Stream, error) {
	s, err := nd.Dial(raddr, rport, nil)
	if err != nil {
		return nil, err
	}
	s.dialWaiter = p
	p.Park()
	if s.dialErr != nil {
		return nil, s.dialErr
	}
	return s, nil
}

// dialed ends the handshake: the one place its outcome is reported.
func (s *Stream) dialed(err error) {
	s.dialing, s.dialErr = false, err
	if s.recv != nil {
		s.recv.Dialed(err)
	} else if s.dialWaiter != nil {
		s.dialWaiter.Unpark()
	}
}

func (s *Stream) eof() {
	if r := s.recv; r != nil {
		s.recv = nil
		r.EOF()
	}
}

// RemoteAddr returns the peer's node address.
func (s *Stream) RemoteAddr() IPAddr { return s.key.raddr }

// Send queues one framed message for reliable delivery. It never
// blocks; flow beyond the window is buffered locally.
func (s *Stream) Send(msg []byte) error {
	if s.localClosed {
		return ErrStreamClosed
	}
	if s.reset {
		return errStreamReset
	}
	s.sendq.Push(append([]byte(nil), msg...))
	s.pump()
	return nil
}

// pump moves queued messages into the window.
func (s *Stream) pump() {
	for s.queued() > 0 && s.inFlight() < streamWindow {
		msg := s.sendq.At(int(s.inFlight()))
		s.sendSegment(flagDATA, s.sendSeq, 0, msg)
		s.sendSeq++
	}
	if s.finQueued && s.queued() == 0 && s.finSeq == 0 {
		s.finSeq = s.sendSeq
		s.sendSeq++
		s.sendSegment(flagFIN, s.finSeq, 0, nil)
	}
	if s.inFlight() > 0 {
		s.armRetransmit()
	}
}

// Recv blocks until a message arrives. ok is false once the peer has
// closed (or reset) and all delivered messages are consumed.
func (s *Stream) Recv(p *sim.Proc) ([]byte, bool) {
	return s.inbox.Get(p)
}

// RecvTimeout is Recv with a timeout (d < 0 means none).
func (s *Stream) RecvTimeout(p *sim.Proc, d time.Duration) (msg []byte, ok, timedOut bool) {
	return s.inbox.GetTimeout(p, d)
}

// Reset reports whether the connection terminated abnormally.
func (s *Stream) Reset() bool { return s.reset }

// Close initiates an orderly shutdown: queued data is still delivered,
// then a FIN. Close is idempotent.
func (s *Stream) Close() {
	if s.localClosed || s.reset {
		return
	}
	s.localClosed = true
	s.finQueued = true
	s.pump()
	s.maybeFinish()
}

// abort tears the connection down at once, without a word to the peer;
// a dial it ends fails with dialErr.
func (s *Stream) abort(dialErr error) {
	if s.reset {
		return
	}
	s.reset = true
	s.rtimer.Stop()
	s.inbox.Close()
	if s.dialing {
		s.dialed(dialErr)
	} else {
		s.eof()
	}
	s.finish(true)
}

func (s *Stream) finish(reset bool) {
	if s.toreDown {
		return
	}
	s.toreDown = true
	if p := s.peer; p != nil {
		p.peer, s.peer = nil, nil
	}
	s.node.streams.delConn(s.key)
	s.rtimer.Stop()
	if s.teardown != nil {
		s.teardown(reset)
	}
}

// maybeFinish completes an orderly close once both directions are done.
func (s *Stream) maybeFinish() {
	if s.localClosed && s.remoteClosed && s.inFlight() == 0 && s.queued() == 0 && !s.finQueuedUnsent() {
		s.finish(false)
	}
}

func (s *Stream) finQueuedUnsent() bool { return s.finQueued && s.finSeq == 0 }

// loopSeg is a connection's segment to an endpoint on its own node:
// route's zero-delay loopback event, scheduled at the same point and
// charged the same IP costs, without a packet, chain or wire header. It
// carries its sender, so that it goes straight to the sender's peer —
// the paper's PCB found by direct index — and not through conns.
type loopSeg struct {
	from *Stream
	seg  segment
}

// sendSegment transmits one segment of this connection.
func (s *Stream) sendSegment(flags byte, seq, ack uint32, data []byte) {
	seg := segment{flags: flags, sport: s.key.lport, dport: s.key.rport, seq: seq, ack: ack, data: data}
	nd := s.node
	if s.key.raddr != nd.Addr {
		nd.sendSegment(s.key.raddr, seg)
		return
	}
	ls := nd.streams.segs.Get()
	*ls = loopSeg{from: s, seg: seg}
	nd.Meter.Charge(cost.IP, cost.IPSendCost)
	nd.eng.ScheduleArg(0, loopArrive, ls)
}

func loopArrive(arg any) {
	ls := arg.(*loopSeg)
	from, seg := ls.from, ls.seg
	*ls = loopSeg{}
	from.node.streams.segs.Put(ls)
	from.land(&seg)
}

// land delivers a loopback segment from s as deliverLocal would: to s's
// peer while they are linked, else by the conns lookup.
func (s *Stream) land(seg *segment) {
	nd := s.node
	nd.Meter.Charge(cost.IP, cost.IPRecvCost)
	nd.Delivered++
	if s.peer != nil {
		s.peer.handle(seg)
		return
	}
	nd.streams.demux(nd.Addr, seg, s)
}

// sendAck sends the cumulative ACK. A loopback ACK lands in this
// instant, so it is applied to the peer here, by the same handle, unless
// an event queued ahead of it could tell: behind a full window messages
// or a FIN may wait, and a Send would queue instead of sending; an ACK
// covering the peer's FIN once s's own FIN is out finishes the peer, on
// this ACK or on that FIN, whichever lands second. Those stay events.
func (s *Stream) sendAck() {
	p := s.peer
	if p == nil || p.inFlight() >= streamWindow || p.finSeq != 0 && s.recvNext == p.sendSeq && s.finSeq != 0 {
		s.sendSegment(flagACK, 0, s.recvNext, nil)
		return
	}
	s.node.Meter.Charge(cost.IP, cost.IPSendCost)
	s.land(&segment{flags: flagACK, sport: s.key.lport, dport: s.key.rport, ack: s.recvNext})
}

func (s *Stream) armRetransmit() {
	s.rtimer.Stop()
	s.rtimer = s.node.eng.ScheduleArg(streamRTO, streamRetransmit, s)
}

func streamRetransmit(arg any) { arg.(*Stream).onRetransmit() }

func (s *Stream) onRetransmit() {
	s.rtimer = sim.Timer{}
	if s.reset || s.toreDown {
		return
	}
	s.retries++
	if s.retries > streamMaxRetries {
		s.abort(errStreamReset)
		return
	}
	if !s.established && s.dialing {
		s.sendSegment(flagSYN, 0, 0, nil)
		s.armRetransmit()
		return
	}
	for seq := s.unackBase; seq < s.sendSeq; seq++ {
		s.Retransmits++
		if seq == s.finSeq {
			s.sendSegment(flagFIN, seq, 0, nil)
		} else {
			s.sendSegment(flagDATA, seq, 0, s.sendq.At(int(seq-s.unackBase)))
		}
	}
	if s.inFlight() > 0 {
		s.armRetransmit()
	}
}

// input dispatches a stream segment arriving off the wire.
func (sl *streamLayer) input(pkt *Packet) {
	var hdr [segHeaderSize]byte
	n := pkt.Payload.CopyTo(hdr[:])
	seg := decodeHeader(&hdr)
	if n == segHeaderSize && seg.flags&flagDATA != 0 {
		// The one copy the receive side takes: the inbox keeps it.
		seg.data = pkt.Payload.Bytes()[segHeaderSize:]
	}
	src := pkt.Src
	pkt.Payload.Release()
	if n < segHeaderSize {
		return
	}
	sl.demux(src, &seg, nil)
}

// demux finds a segment's connection by its key. from, when not nil, is
// the loopback connection that sent it, which a SYN links to the
// connection it opens.
func (sl *streamLayer) demux(src IPAddr, seg *segment, from *Stream) {
	key := connKey{lport: seg.dport, raddr: src, rport: seg.sport}
	if s, ok := sl.conns[key]; ok {
		s.handle(seg)
		return
	}
	// No connection. SYN to a live listener opens one; anything else
	// (except RST itself) draws an RST.
	if seg.flags&flagSYN != 0 && seg.flags&flagACK == 0 {
		if l, ok := sl.listeners[seg.dport]; ok && !l.closed {
			s := newStream(sl.node, key)
			s.established = true
			sl.addConn(s)
			if from != nil && !from.toreDown { // from is in conns: linkable
				s.peer, from.peer = from, s
			}
			s.sendSegment(flagSYN|flagACK, 0, 0, nil)
			if l.onAccept != nil {
				s.recv = l.onAccept(s)
			} else {
				l.backlog.Put(s)
			}
			return
		}
	}
	if seg.flags&flagRST == 0 {
		sl.node.sendSegment(src, segment{flags: flagRST, sport: seg.dport, dport: seg.sport})
	}
}

// handle processes a segment on an existing connection.
func (s *Stream) handle(seg *segment) {
	if s.toreDown {
		return
	}
	switch {
	case seg.flags&flagRST != 0:
		s.abort(errConnRefused)
		return

	case seg.flags&flagSYN != 0 && seg.flags&flagACK == 0:
		// Retransmitted SYN on an accepted connection: the original
		// SYN-ACK was lost, so resend it.
		s.sendSegment(flagSYN|flagACK, 0, 0, nil)
		return

	case seg.flags&flagSYN != 0 && seg.flags&flagACK != 0:
		// SYN-ACK: dial completes.
		if !s.established {
			s.established = true
			s.retries = 0
			s.rtimer.Stop()
			s.sendAck()
			s.dialed(nil)
			s.pump()
		}
		return

	case seg.flags&flagDATA != 0, seg.flags&flagFIN != 0:
		s.established = true
		switch {
		case seg.seq == s.recvNext:
			s.acceptInOrder(seg)
			for next, ok := s.ooo[s.recvNext]; ok; next, ok = s.ooo[s.recvNext] {
				delete(s.ooo, next.seq)
				s.acceptInOrder(&next)
			}
		case seg.seq > s.recvNext && seg.seq-s.recvNext <= streamWindow:
			// Nothing legitimate lies further ahead: at most streamWindow
			// messages are in flight, and the FIN follows them.
			if s.ooo == nil {
				s.ooo = make(map[uint32]segment)
			}
			s.ooo[seg.seq] = *seg
		}
		// Cumulative ACK in all cases (including duplicates and
		// segments beyond the window), then the receiver's end of stream:
		// its close follows the ACK onto the wire, as a reader's would.
		s.sendAck()
		if s.remoteClosed {
			s.eof()
		}
		return

	case seg.flags&flagACK != 0:
		if seg.ack > s.sendSeq {
			// Acknowledges what was never sent: forged, or a stale
			// segment landing on a reused connection key.
			return
		}
		s.established = true
		s.retries = 0
		if seg.ack <= s.unackBase {
			return
		}
		for ; s.unackBase < seg.ack; s.unackBase++ {
			if s.unackBase != s.finSeq {
				s.sendq.Pop()
			}
		}
		if s.inFlight() == 0 {
			s.rtimer.Stop()
		}
		s.pump()
		s.maybeFinish()
		return
	}
}

func (s *Stream) acceptInOrder(seg *segment) {
	s.recvNext++
	if seg.flags&flagFIN != 0 {
		s.remoteClosed = true
		s.inbox.Close()
		s.maybeFinish()
		return
	}
	if s.recv != nil {
		s.recv.Deliver(seg.data)
		return
	}
	s.inbox.Put(seg.data)
}
