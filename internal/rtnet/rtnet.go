// Package rtnet is the real-mode batched datagram carrier: it moves
// signaling frames between real sighost daemons and AAL5 data frames
// between real hosts over UDP, amortizing the per-message OS cost the
// paper's thesis targets (one syscall per frame is exactly the demux
// tax §5 argues against; here the syscall boundary itself is batched).
//
// On Linux (amd64/arm64) transmission and reception use the
// sendmmsg(2)/recvmmsg(2) batch syscalls through the stdlib syscall
// package; every other platform (and Linux with Config.Unbatched) runs
// the same Carrier interface over one WriteToUDPAddrPort /
// ReadFromUDPAddrPort per frame, so the build-tag matrix changes only
// how many frames cross the kernel boundary per trap, never semantics.
//
// The transmit side coalesces per peer: frames append into a bounded
// per-peer slab (copied, so callers may reuse their buffers — the same
// ownership contract as Env.SendPeer) and flush when the batch
// fills, the slab fills, or the owner reaches a dispatch boundary and
// calls Flush — mirroring the journal's one-flush-per-dispatch WAL
// discipline. The transmit side has one owner, the sender: one
// goroutine adds the peers, sends on them and flushes, so the slabs
// take no lock; only the receive pump's peer lookup is shared.
// Steady-state tx and rx hot loops allocate nothing: slabs, mmsg
// headers, iovecs and sockaddrs are preallocated per peer/carrier (the
// PR 2 free-list discipline applied to datagram buffers), and the
// raw-syscall callbacks are pre-bound method values.
//
// On the batched path a flush sends each run of equal-length frames as
// one train (UDP GSO), which a receiver that asked for it gets back
// whole (UDP GRO) and splits, so a burst crosses the loopback stack
// once. The wire is still one frame per datagram (loss unit = one
// message, or a whole train that meets a full receive buffer; the
// signaling reliability layer and the AAL5 sequence tracker repair or
// count either):
//
//	sig:  class(1)=1  sigmsg wire frame
//	data: class(1)=2  vci(2)  payload (AAL5 CPCS-PDU on the data path)
package rtnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xunet/internal/aal5"
	"xunet/internal/atm"
	"xunet/internal/obs"
)

// Defaults.
const (
	// DefaultBatch is the tx coalescing bound and the rx vector length:
	// at most this many frames ride one sendmmsg/recvmmsg.
	DefaultBatch = 32
	// DefaultMaxFrame bounds one frame's payload (jumbo-ish; loopback
	// and most real MTUs after fragmentation concerns are the caller's).
	DefaultMaxFrame = 8192
)

// Frame classes (first byte of every datagram).
const (
	classSig  = 1
	classData = 2
)

// dataHdrLen is the data-class header: class(1) + vci(2).
const dataHdrLen = 3

// Errors.
var (
	ErrFrameTooLong = errors.New("rtnet: frame exceeds MaxFrame")
	ErrClosed       = errors.New("rtnet: carrier closed")
)

// SigHandler consumes one received signaling frame. The payload aliases
// the carrier's receive buffers and is valid only until the handler
// returns; decode (or copy) before handing it to another goroutine.
type SigHandler func(from *Peer, frame []byte)

// DataHandler consumes one received data frame, same aliasing contract.
type DataHandler func(from *Peer, vci atm.VCI, payload []byte)

// Config tunes a Carrier.
type Config struct {
	// Listen is the UDP listen address ("127.0.0.1:0"). IPv4 only: the
	// batched path builds raw sockaddr_in structs.
	Listen string
	// Batch caps frames per flush (DefaultBatch). The receive vector
	// holds Batch datagrams of 3+MaxFrame bytes, or, where the kernel
	// hands trains over whole (UDP_GRO), as many 64 KiB datagrams as
	// fit in those bytes: 4 at the defaults, trains or not.
	Batch int
	// MaxFrame caps one frame's payload bytes (DefaultMaxFrame).
	MaxFrame int
	// Unbatched forces the portable per-message path even where the OS
	// batch syscalls exist — the fallback every non-Linux build runs,
	// kept selectable on Linux so tests and benchmarks can compare the two on
	// identical hardware.
	Unbatched bool
	// ManualRx suppresses the receive pump; the owner drives RecvOnce
	// itself (tests and the allocation gates, which need the rx path on
	// a deterministic goroutine).
	ManualRx bool
	// Obs receives the carrier's counters and per-peer batch histograms;
	// nil uses a private registry so instrumentation is unconditional.
	Obs *obs.Registry

	// OnSig/OnData dispatch received frames (set before Start; they run
	// on the receive pump goroutine).
	OnSig  SigHandler
	OnData DataHandler
}

// Carrier is one real-mode datagram endpoint: a UDP socket, a peer
// table, per-peer transmit coalescers and a receive pump.
type Carrier struct {
	cfg      Config
	batch    int
	maxFrame int
	batched  bool // OS batch syscalls in use
	gso, gro bool // the socket took UDP_SEGMENT / UDP_GRO (batched only)

	pc  *net.UDPConn
	rc  syscall.RawConn
	reg *obs.Registry

	// mu guards byAddr and closed: the receive pump looks up every
	// datagram's source in byAddr while the sender adds peers, and Close
	// may run on any goroutine. byName and plist belong to the sender,
	// the one goroutine that adds peers, sends and flushes.
	mu     sync.Mutex
	byAddr map[netip.AddrPort]*Peer
	closed bool
	byName map[string]*Peer
	plist  []*Peer

	wg      sync.WaitGroup
	started atomic.Bool

	// rx state: OS-specific vectors (batched) or one reusable buffer.
	rxb   rxBatch
	rxBuf []byte

	// Counters. tx.syscalls_saved is the batching win made visible:
	// frames that crossed the kernel boundary without their own trap.
	// tx.msgs and rx.msgs count messages and datagrams, so frames per
	// message is the train length.
	txFrames        *obs.Counter
	txBatches       *obs.Counter
	txMsgs          *obs.Counter
	txSyscallsSaved *obs.Counter
	txGSORefused    *obs.Counter
	txErrors        *obs.Counter
	rxFrames        *obs.Counter
	rxBatches       *obs.Counter
	rxMsgs          *obs.Counter
	rxUnknownPeer   *obs.Counter
	rxBadFrame      *obs.Counter
}

// Peer is one remote carrier endpoint with its transmit coalescer. It
// has one sender: the goroutine that added it (a real daemon's actor)
// is the only one that may send on it or flush it, so its slab is plain
// fields with no lock.
type Peer struct {
	c    *Carrier
	name string

	ap   netip.AddrPort
	slab []byte // frames back to back; cap = Batch * (dataHdrLen + MaxFrame)
	offs []int  // offs[i]..offs[i+1] bounds frame i; len Batch+1
	n    int    // frames pending

	// batchHist observes the flushed batch size (frames, encoded as
	// time.Duration units — the registry's histograms are log-bucketed
	// counters, so any monotone scale quantiles correctly).
	batchHist *obs.Histogram

	txb txBatch // OS-specific: preallocated mmsg headers/iovecs/sockaddr
}

// New binds the carrier's socket and builds its peer machinery. Call
// Start to launch the receive pump (unless ManualRx).
func New(cfg Config) (*Carrier, error) {
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	laddr, err := net.ResolveUDPAddr("udp4", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("rtnet: listen %q: %w", cfg.Listen, err)
	}
	pc, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("rtnet: listen %q: %w", cfg.Listen, err)
	}
	// Deep socket buffers: a burst of batches must not shed frames at
	// the loopback before the pump drains them.
	_ = pc.SetReadBuffer(1 << 21)
	_ = pc.SetWriteBuffer(1 << 21)
	rc, err := pc.SyscallConn()
	if err != nil {
		pc.Close()
		return nil, err
	}
	c := &Carrier{
		cfg:      cfg,
		batch:    cfg.Batch,
		maxFrame: cfg.MaxFrame,
		batched:  osBatched && !cfg.Unbatched,
		pc:       pc,
		rc:       rc,
		reg:      reg,
		byAddr:   map[netip.AddrPort]*Peer{},
		byName:   map[string]*Peer{},

		txFrames:        reg.Counter("rtnet.tx.frames"),
		txBatches:       reg.Counter("rtnet.tx.batches"),
		txMsgs:          reg.Counter("rtnet.tx.msgs"),
		txSyscallsSaved: reg.Counter("rtnet.tx.syscalls_saved"),
		txGSORefused:    reg.Counter("rtnet.tx.gso_refused"),
		txErrors:        reg.Counter("rtnet.tx.errors"),
		rxFrames:        reg.Counter("rtnet.rx.frames"),
		rxBatches:       reg.Counter("rtnet.rx.batches"),
		rxMsgs:          reg.Counter("rtnet.rx.msgs"),
		rxUnknownPeer:   reg.Counter("rtnet.rx.unknown_peer"),
		rxBadFrame:      reg.Counter("rtnet.rx.bad_frame"),
	}
	if c.batched {
		c.osCarrierInit()
	} else {
		// One byte over the longest frame: a datagram that fills it was
		// truncated, and dispatch drops it as too long.
		c.rxBuf = make([]byte, dataHdrLen+c.maxFrame+1)
	}
	return c, nil
}

// Start launches the receive pump (a no-op under ManualRx).
func (c *Carrier) Start() {
	if c.cfg.ManualRx || !c.started.CompareAndSwap(false, true) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			if _, err := c.RecvOnce(); err != nil {
				return // socket closed (or unrecoverable)
			}
		}
	}()
}

// Close flushes nothing (pending frames are dropped — UDP semantics),
// closes the socket and joins the pump.
func (c *Carrier) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.pc.Close()
	c.wg.Wait()
	return err
}

// Addr reports the carrier's bound UDP address.
func (c *Carrier) Addr() string { return c.pc.LocalAddr().String() }

// AddrPort reports the bound address as a netip.AddrPort.
func (c *Carrier) AddrPort() netip.AddrPort {
	ua := c.pc.LocalAddr().(*net.UDPAddr)
	return ua.AddrPort()
}

// Batched reports whether the OS batch syscalls are in use (false on
// non-Linux builds and under Config.Unbatched).
func (c *Carrier) Batched() bool { return c.batched }

// AddPeer registers a remote endpoint under a stable name (the real
// deployment keys peers by ATM address). Frames from unregistered
// sources are counted and dropped — the peer table is the demux. It
// runs on the sender, the goroutine that will send on the peer.
func (c *Carrier) AddPeer(name string, ap netip.AddrPort) (*Peer, error) {
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	if !ap.Addr().Is4() {
		return nil, fmt.Errorf("rtnet: peer %s: IPv4 addresses only, got %s", name, ap)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("rtnet: duplicate peer %q", name)
	}
	if _, dup := c.byAddr[ap]; dup {
		return nil, fmt.Errorf("rtnet: duplicate peer address %s", ap)
	}
	p := &Peer{
		c:         c,
		name:      name,
		ap:        ap,
		slab:      make([]byte, 0, c.batch*(dataHdrLen+c.maxFrame)),
		offs:      make([]int, c.batch+1),
		batchHist: c.reg.Histogram("rtnet.tx.batch." + name),
	}
	p.osInit()
	c.byName[name] = p
	c.byAddr[ap] = p
	c.plist = append(c.plist, p)
	return p, nil
}

// Flush transmits every peer's pending frames — the dispatch-boundary
// hook (the real daemon's actor calls it after each handler, exactly
// where the journal jflushes). Like AddPeer, it runs on the sender.
func (c *Carrier) Flush() {
	for _, p := range c.plist {
		_ = p.Flush()
	}
}

// Name reports the peer's registered name.
func (p *Peer) Name() string { return p.name }

// SendSig coalesces one signaling frame toward the peer. The frame is
// copied before return; the caller's buffer is immediately reusable.
func (p *Peer) SendSig(frame []byte) error {
	return p.send(classSig, 0, frame)
}

// SendData coalesces one data frame on the given VCI.
func (p *Peer) SendData(vci atm.VCI, payload []byte) error {
	return p.send(classData, vci, payload)
}

func (p *Peer) send(class byte, vci atm.VCI, payload []byte) error {
	if len(payload) > p.c.maxFrame {
		return ErrFrameTooLong
	}
	hdr := 1
	if class == classData {
		hdr = dataHdrLen
	}
	if p.n == p.c.batch || len(p.slab)+hdr+len(payload) > cap(p.slab) {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	p.slab = append(p.slab, class)
	if class == classData {
		p.slab = append(p.slab, byte(vci>>8), byte(vci))
	}
	p.slab = append(p.slab, payload...)
	p.n++
	p.offs[p.n] = len(p.slab)
	return nil
}

// Flush transmits this peer's pending batch: one sendmmsg on the
// batched path, one write per frame on the fallback.
func (p *Peer) Flush() error {
	n := p.n
	if n == 0 {
		return nil
	}
	c := p.c
	var err error
	syscalls := 0
	if c.batched {
		syscalls, err = p.osFlush()
	} else {
		for i := 0; i < n; i++ {
			frame := p.slab[p.offs[i]:p.offs[i+1]]
			if _, werr := c.pc.WriteToUDPAddrPort(frame, p.ap); werr != nil && err == nil {
				err = werr
			}
		}
		syscalls = n
		c.txMsgs.Add(uint64(n))
	}
	c.txFrames.Add(uint64(n))
	c.txBatches.Inc()
	if n > syscalls {
		c.txSyscallsSaved.Add(uint64(n - syscalls))
	}
	if err != nil {
		c.txErrors.Inc()
	}
	p.batchHist.Observe(time.Duration(n))
	p.n = 0
	p.slab = p.slab[:0]
	return err
}

// RecvOnce receives one batch (one datagram on the fallback path) and
// dispatches each frame to the class handler, returning the number of
// frames consumed (a datagram dropped whole counts as one). It blocks
// in the runtime poller until the socket is readable; a closed socket
// returns an error. The pump is just this in a loop — ManualRx owners
// call it directly, which keeps the rx hot path on a test-controlled
// goroutine for the allocation gates.
func (c *Carrier) RecvOnce() (int, error) {
	if c.batched {
		return c.osRecvOnce()
	}
	n, ap, err := c.pc.ReadFromUDPAddrPort(c.rxBuf)
	if err != nil {
		return 0, err
	}
	c.rxBatches.Inc()
	c.rxMsgs.Inc()
	return c.dispatch(netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), c.rxBuf[:n], 0), nil
}

// dispatch routes one received datagram: one peer lookup by source
// address, then each frame of the train (see nextFrame) to deliver.
// Returns the frames consumed, a datagram from an unknown peer counting
// as one. Alloc-free.
func (c *Carrier) dispatch(src netip.AddrPort, dgram []byte, seg int) int {
	c.mu.Lock()
	p := c.byAddr[src]
	c.mu.Unlock()
	if p == nil {
		c.rxUnknownPeer.Inc()
		return 1
	}
	for n := 1; ; n++ {
		var frame []byte
		frame, dgram = nextFrame(dgram, seg)
		c.deliver(p, frame)
		if len(dgram) == 0 {
			return n
		}
	}
}

// nextFrame cuts the first frame off a received train of seg-byte
// frames (the last may be shorter). A seg of 0, or one not smaller than
// the datagram, means the datagram is one frame.
func nextFrame(dgram []byte, seg int) (frame, rest []byte) {
	if seg <= 0 || seg >= len(dgram) {
		return dgram, nil
	}
	return dgram[:seg], dgram[seg:]
}

// deliver checks one frame and hands it to its class handler.
func (c *Carrier) deliver(p *Peer, frame []byte) {
	if len(frame) < 1 || len(frame) > dataHdrLen+c.maxFrame {
		c.rxBadFrame.Inc()
		return
	}
	switch frame[0] {
	case classSig:
		c.rxFrames.Inc()
		if h := c.cfg.OnSig; h != nil {
			h(p, frame[1:])
		}
	case classData:
		if len(frame) < dataHdrLen {
			c.rxBadFrame.Inc()
			return
		}
		c.rxFrames.Inc()
		if h := c.cfg.OnData; h != nil {
			vci := atm.VCI(uint16(frame[1])<<8 | uint16(frame[2]))
			h(p, vci, frame[dataHdrLen:])
		}
	default:
		c.rxBadFrame.Inc()
	}
}

// AAL5Link frames payloads as AAL5 CPCS-PDUs over one (peer, VCI): the
// real-mode data path. The per-VC frame sequence number rides the
// CPCS-UU octet exactly as on the simulated Hobbit boards, so the
// receive side detects frame loss and reordering with the same
// SeqTracker. Not safe for concurrent use; give each direction its own.
type AAL5Link struct {
	P   *Peer
	VCI atm.VCI

	// Seq is the receive-side order tracker (read InOrder/OutOfOrder
	// for loss accounting).
	Seq aal5.SeqTracker

	txSeq byte
	buf   []byte
}

// Send wraps payload in an AAL5 frame (zero-alloc steady state: the
// CPCS-PDU builds in a reused scratch) and coalesces it onto the peer.
func (l *AAL5Link) Send(payload []byte) error {
	var err error
	l.buf, err = aal5.AppendFrame(l.buf[:0], payload, l.txSeq)
	if err != nil {
		return err
	}
	l.txSeq++
	return l.P.SendData(l.VCI, l.buf)
}

// Recv validates one received data frame as an AAL5 CPCS-PDU and
// sequence-checks it. The returned payload aliases frame.
func (l *AAL5Link) Recv(frame []byte) ([]byte, error) {
	payload, uu, err := aal5.ParseFrame(frame)
	if err != nil {
		return nil, err
	}
	if ok, gap := l.Seq.Check(uu); !ok {
		return payload, fmt.Errorf("aal5: frame sequence gap %+d on vci %d", gap, l.VCI)
	}
	return payload, nil
}
