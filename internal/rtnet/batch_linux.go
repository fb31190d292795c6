//go:build linux && (amd64 || arm64)

// The batched half of the carrier: sendmmsg(2)/recvmmsg(2) through the
// stdlib syscall package. The mmsghdr vector type is not in the stdlib,
// so it is declared here over syscall.Msghdr (whose per-arch layout the
// stdlib guarantees); the syscall numbers live in sysnum_linux_*.go.
// Only the 64-bit arches this repo targets are enabled — everything
// else takes the portable per-message path in batch_fallback.go, which
// is also what this file's carrier runs under Config.Unbatched.

package rtnet

import (
	"encoding/binary"
	"net/netip"
	"syscall"
	"unsafe"
)

// osBatched selects the batched send/receive implementation at build
// time; Config.Unbatched can still disable it per carrier.
const osBatched = true

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-filled
// received/sent byte count. The trailing pad keeps the 8-byte stride
// the kernel walks the vector with on 64-bit arches.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgOp is a pre-bound raw-syscall callback for syscall.RawConn:
// building a fresh closure per flush would put an allocation in the hot
// loop, so the op struct is allocated once per peer (tx) or carrier
// (rx) and its do method is stored as a reusable func value.
type mmsgOp struct {
	sysno uintptr
	hdrs  []mmsghdr
	off   int
	vlen  int

	got   int
	errno syscall.Errno
	fn    func(uintptr) bool
}

func (o *mmsgOp) init(sysno uintptr) {
	o.sysno = sysno
	o.fn = o.do
}

func (o *mmsgOp) do(fd uintptr) bool {
	r, _, e := syscall.Syscall6(o.sysno, fd,
		uintptr(unsafe.Pointer(&o.hdrs[o.off])), uintptr(o.vlen), 0, 0, 0)
	o.got, o.errno = int(r), e
	return e != syscall.EAGAIN
}

// htons converts a port to the network byte order sockaddr_in wants.
func htons(v uint16) uint16 { return v<<8 | v>>8 }

// UDP offloads (include/uapi/linux/udp.h, level SOL_UDP) and the train
// bounds: at most trainFrames frames (the kernel's smallest
// UDP_MAX_SEGMENTS) and trainBytes bytes (the largest IPv4 UDP payload)
// per message; a GRO slot holds the largest coalesced datagram.
const (
	udpSegment  = 103 // UDP_SEGMENT: a uint16 segment size per message
	udpGRO      = 104 // UDP_GRO: an int segment size per received datagram
	trainFrames = 64
	trainBytes  = 65507
	groSlot     = 1 << 16
)

// udpCmsg is one SOL_UDP control message padded to CMSG_SPACE: the
// value is UDP_SEGMENT's uint16 or UDP_GRO's int, in host byte order.
type udpCmsg struct {
	hdr syscall.Cmsghdr
	val [8]byte
}

// txBatch is the per-peer preallocated sendmmsg state: one message per
// train, each with its own UDP_SEGMENT control message.
type txBatch struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	cms   []udpCmsg
	first []int // first[m]: index of message m's first frame
	sa    syscall.RawSockaddrInet4
	op    mmsgOp
	// below: trains form only from frames shorter than this — 0 when
	// the socket refused UDP_SEGMENT, the refused length once a train
	// was refused on this peer's path.
	below int
}

// osInit builds the peer's send vector once; osRuns only rewrites iovec
// and control fields.
func (p *Peer) osInit() {
	b, t := p.c.batch, &p.txb
	t.hdrs = make([]mmsghdr, b)
	t.iovs = make([]syscall.Iovec, b)
	t.cms = make([]udpCmsg, b)
	t.first = make([]int, b)
	t.sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: htons(p.ap.Port()), Addr: p.ap.Addr().As4()}
	if p.c.gso {
		t.below = trainBytes
	}
	for i := range t.hdrs {
		h := &t.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&t.sa))
		h.Namelen = syscall.SizeofSockaddrInet4
		h.Iov = &t.iovs[i]
		h.Iovlen = 1
		t.cms[i].hdr = syscall.Cmsghdr{Len: syscall.SizeofCmsghdr + 2, Level: syscall.IPPROTO_UDP, Type: udpSegment}
	}
	t.op.init(sysSendmmsg)
}

// osRuns lays pending frames f.. into messages m.., one message per
// run of equal-length frames the peer may send as a train, and returns
// the message count. The slab holds frames back to back, so a run is
// one iovec.
func (p *Peer) osRuns(m, f int) int {
	t := &p.txb
	for ; f < p.n; m++ {
		start := p.offs[f]
		size := p.offs[f+1] - start
		k := 1
		if size < t.below {
			limit := min(trainFrames, trainBytes/size, p.n-f)
			for k < limit && p.offs[f+k+1]-p.offs[f+k] == size {
				k++
			}
		}
		t.first[m] = f
		t.iovs[m] = syscall.Iovec{Base: &p.slab[start], Len: uint64(k * size)}
		h := &t.hdrs[m].hdr
		h.Control, h.Controllen = nil, 0
		if k > 1 {
			binary.NativeEndian.PutUint16(t.cms[m].val[:], uint16(size))
			h.Control = (*byte)(unsafe.Pointer(&t.cms[m]))
			h.Controllen = uint64(unsafe.Sizeof(t.cms[m]))
		}
		f += k
	}
	return m
}

// osFlush transmits the pending batch with as few sendmmsg calls as the
// kernel allows (normally one; partial sends continue from where the
// kernel stopped). A train the path refuses (EINVAL, EIO: a segment
// over the MTU, no checksum offload) is resent one frame per message,
// and the peer forms no train that long again. Returns the syscall
// count for the saved-syscalls accounting.
func (p *Peer) osFlush() (syscalls int, err error) {
	t := &p.txb
	m := p.osRuns(0, 0)
	op := &t.op
	op.hdrs = t.hdrs
	sent := 0
	for sent < m && err == nil {
		op.off, op.vlen = sent, m-sent
		syscalls++
		werr := p.c.rc.Write(op.fn)
		switch {
		case werr != nil:
			err = werr
		case (op.errno == syscall.EINVAL || op.errno == syscall.EIO) && t.hdrs[sent].hdr.Controllen != 0:
			f := t.first[sent]
			t.below = p.offs[f+1] - p.offs[f]
			p.c.txGSORefused.Inc()
			m = p.osRuns(sent, f)
		case op.errno != 0:
			err = op.errno
		case op.got <= 0:
			err = syscall.EIO
		default:
			sent += op.got
		}
	}
	p.c.txMsgs.Add(uint64(sent))
	return syscalls, err
}

// rxBatch is the carrier-wide preallocated recvmmsg state: one
// contiguous buffer block sliced into equal slots, a sockaddr and a
// control message per slot.
type rxBatch struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
	cms  []udpCmsg
	bufs []byte
	slot int
	op   mmsgOp
}

// osCarrierInit probes the socket's offloads and builds the receive
// vector. UDP_SEGMENT lets peers send trains. UDP_GRO is enabled only
// when the block of Batch slots of 3+MaxFrame bytes holds at least one
// 64 KiB slot; the block is then cut into 64 KiB slots, so a coalesced
// train always fits and GRO costs no receive memory.
func (c *Carrier) osCarrierInit() {
	block := c.batch * (dataHdrLen + c.maxFrame)
	_ = c.rc.Control(func(fd uintptr) {
		c.gso = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment, 0) == nil
		c.gro = block >= groSlot && syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
	})
	r := &c.rxb
	b, sz := c.batch, dataHdrLen+c.maxFrame
	if c.gro {
		b, sz = block/groSlot, groSlot
	}
	r.slot = sz
	r.hdrs = make([]mmsghdr, b)
	r.iovs = make([]syscall.Iovec, b)
	r.sas = make([]syscall.RawSockaddrInet4, b)
	r.cms = make([]udpCmsg, b)
	r.bufs = make([]byte, b*sz)
	for i := range r.hdrs {
		buf := r.bufs[i*sz : (i+1)*sz]
		r.iovs[i] = syscall.Iovec{Base: &buf[0], Len: uint64(sz)}
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.sas[i]))
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
		r.reset(i)
	}
	r.op.init(sysRecvmmsg)
	r.op.hdrs = r.hdrs
}

// reset restores slot i's name and control capacity, which recvmmsg
// overwrites with the lengths it used.
func (r *rxBatch) reset(i int) {
	h := &r.hdrs[i].hdr
	h.Namelen = syscall.SizeofSockaddrInet4
	h.Control = (*byte)(unsafe.Pointer(&r.cms[i]))
	h.Controllen = uint64(unsafe.Sizeof(r.cms[i]))
}

// osRecvOnce drains up to one full vector of datagrams in a single
// recvmmsg, splitting each train and dispatching its frames inline.
func (c *Carrier) osRecvOnce() (int, error) {
	r := &c.rxb
	op := &r.op
	op.off, op.vlen = 0, len(r.hdrs)
	if err := c.rc.Read(op.fn); err != nil {
		return 0, err
	}
	if op.errno != 0 {
		return 0, op.errno
	}
	n := op.got
	c.rxBatches.Inc()
	c.rxMsgs.Add(uint64(n))
	frames := 0
	for i := 0; i < n; i++ {
		h, cm := &r.hdrs[i].hdr, &r.cms[i]
		seg := 0
		if h.Controllen >= syscall.SizeofCmsghdr+4 && cm.hdr.Level == syscall.IPPROTO_UDP && cm.hdr.Type == udpGRO {
			seg = int(int32(binary.NativeEndian.Uint32(cm.val[:])))
		}
		if h.Flags&syscall.MSG_TRUNC != 0 {
			c.rxBadFrame.Inc() // cut to its slot: no frame to trust
			frames++
		} else {
			sa := &r.sas[i]
			src := netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), htons(sa.Port))
			frames += c.dispatch(src, r.bufs[i*r.slot:i*r.slot+int(r.hdrs[i].n)], seg)
		}
		r.reset(i)
	}
	return frames, nil
}
