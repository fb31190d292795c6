// Package protoatm implements IPPROTO_ATM, the paper's raw-over-IP
// encapsulation protocol (§5.4, §7.4) that lets any host with IP
// connectivity send AAL frames into the Xunet ATM network.
//
// The encapsulation header carries exactly the paper's three fields —
// the sending node's ATM address, a sequence number to detect
// out-of-order packets, and the VCI — and deliberately has no checksum
// ("our IP links are over reliable FDDI links") and does no
// segmentation, so cell loss within a frame remains impossible on the
// IP path.
//
// Host side: the Orc driver's output routine calls Encap, and Decap
// feeds the driver's input routine. A configuration write sets the
// host's target router (the IP forwarding address for IPPROTO_ATM).
//
// Router side: Decap checks sequencing and hands the mbuf chain to the
// Orc driver along with the VCI — the Hobbit board does the AAL5
// trailer, segmentation and transmission. For the reverse flow, the
// router keeps a per-VCI IP destination table configured by VCI_BIND
// messages; the Orc handler for such VCIs is the encapsulation routine,
// re-encapsulating ATM data toward the remote host. VCI_SHUT clears the
// mappings and tells the driver to discard further data on the VCI.
package protoatm

import (
	"errors"

	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
)

// Errors from the encapsulation layer.
var (
	errNoRouter    = errors.New("protoatm: no target router configured")
	errBadHeader   = errors.New("protoatm: malformed encapsulation header")
	errBadChecksum = errors.New("protoatm: encapsulation header checksum mismatch")
	errAddrTooBig  = errors.New("protoatm: ATM address exceeds 255 bytes")
)

// header is the encapsulation header: source ATM address (length
// prefixed), sequence number, VCI, and — when the layer is configured
// for it — the header checksum the paper leaves as an option ("We do
// not currently have a header checksum field, since our IP links are
// over reliable FDDI links. A header checksum could be added to the
// encapsulation header if needed."). A decoded src is a view into the
// packet, valid until its chain is released.
type header struct {
	src []byte
	seq uint32
	vci atm.VCI
}

// Header flag bits (first octet).
const flagChecksum = 0x01

// maxHeaderLen is the longest header: a 255-byte address, checksummed.
const maxHeaderLen = 2 + 255 + 6 + 2

// headerLen is the length of the header whose first two octets, the
// flags and the address length, are given.
func headerLen(flags, alen byte) int {
	if flags&flagChecksum != 0 {
		return 2 + int(alen) + 8
	}
	return 2 + int(alen) + 6
}

// appendHeader appends the header for a frame from src (at most 255
// bytes) to out; the layer encodes into a stack array.
func appendHeader(out []byte, src atm.Addr, seq uint32, vci atm.VCI, withChecksum bool) []byte {
	var flags byte
	if withChecksum {
		flags = flagChecksum
	}
	start := len(out)
	out = append(append(out, flags, byte(len(src))), src...)
	out = append(out, byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq), byte(vci>>8), byte(vci))
	if withChecksum {
		ck := headerChecksum(out[start:])
		out = append(out, byte(ck>>8), byte(ck))
	}
	return out
}

// headerChecksum is the 16-bit ones-complement sum over the header
// octets (the internet checksum the paper's option implies).
func headerChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// decode parses a header from the front of b, returning the header size.
// A VCI past atm.MaxVCI names no circuit and makes the header malformed.
func decode(b []byte) (header, int, error) {
	if len(b) < 2 {
		return header{}, 0, errBadHeader
	}
	flags, alen := b[0], int(b[1])
	n := headerLen(flags, b[1])
	if len(b) < n {
		return header{}, 0, errBadHeader
	}
	if flags&flagChecksum != 0 {
		want := uint16(b[n-2])<<8 | uint16(b[n-1])
		if headerChecksum(b[:n-2]) != want {
			return header{}, 0, errBadChecksum
		}
	}
	h := header{
		src: b[2 : 2+alen],
		seq: uint32(b[2+alen])<<24 | uint32(b[3+alen])<<16 | uint32(b[4+alen])<<8 | uint32(b[5+alen]),
		vci: atm.VCI(uint16(b[6+alen])<<8 | uint16(b[7+alen])),
	}
	if h.vci > atm.MaxVCI {
		return header{}, 0, errBadHeader
	}
	return h, n, nil
}

// vcEntry is the layer's per-VCI state, made under lease: a later grant
// of the VCI starts from the zero entry.
type vcEntry struct {
	lease   atm.Lease
	dst     memnet.IPAddr // router: IP destination bound to the VCI; 0 if none
	sendSeq uint32
	recv    []seqEntry // the next sequence number expected from each source
}

type seqEntry struct {
	src  string
	next uint32
}

// layerMode selects host or router behaviour.
type layerMode uint8

// Layer modes.
const (
	HostMode layerMode = iota
	RouterMode
)

// Layer is the IPPROTO_ATM protocol instance on one machine.
type Layer struct {
	m         *kern.Machine
	localAddr atm.Addr
	mode      layerMode

	// routerIP is the host's IP forwarding address for IPPROTO_ATM,
	// set by the configuration write.
	routerIP memnet.IPAddr

	// vcs holds the router's IP destination, the send sequence and the
	// per-source receive sequences of each VCI, indexed by VCI.
	vcs []vcEntry

	// checksum enables the optional header checksum on the send side;
	// receivers always verify when the flag bit is present.
	checksum bool

	// Counters for experiments.
	Encapsulated   uint64
	Decapsulated   uint64
	OutOfOrder     uint64
	Switched       uint64 // router: host->ATM transits
	ReEncapsulated uint64 // router: ATM->host transits
	Unbound        uint64 // router: frames for VCIs with no IP binding
	ChecksumErrors uint64 // headers rejected by the optional checksum
}

// New installs the layer on a machine in the given mode, binding the
// IPPROTO_ATM protocol number and (on hosts) wiring the Orc driver's
// output to the encapsulation routine.
func New(m *kern.Machine, localAddr atm.Addr, mode layerMode) *Layer {
	l := &Layer{m: m, localAddr: localAddr, mode: mode}
	m.IP.BindProto(memnet.ProtoATM, l.input)
	if mode == HostMode {
		m.Orc.SetEncap(l.encap)
	}
	m.Obs.Func("protoatm.encapsulated", func() uint64 { return l.Encapsulated })
	m.Obs.Func("protoatm.decapsulated", func() uint64 { return l.Decapsulated })
	m.Obs.Func("protoatm.out_of_order", func() uint64 { return l.OutOfOrder })
	m.Obs.Func("protoatm.switched", func() uint64 { return l.Switched })
	m.Obs.Func("protoatm.reencapsulated", func() uint64 { return l.ReEncapsulated })
	m.Obs.Func("protoatm.unbound", func() uint64 { return l.Unbound })
	m.Obs.Func("protoatm.checksum_errors", func() uint64 { return l.ChecksumErrors })
	return l
}

// ConfigureRouter sets the host's target router. In the original this
// is a message written to an IPPROTO_ATM socket whose destination
// address becomes the forwarding address; anand client does it at boot,
// and "this allows a host to reconfigure its target router easily".
func (l *Layer) ConfigureRouter(ip memnet.IPAddr) { l.routerIP = ip }

// VCIBind installs a router's VCI-to-IP-destination mapping (the
// VCI_BIND message from anand server): data arriving on vci from the
// ATM network is re-encapsulated and forwarded to hostIP.
func (l *Layer) VCIBind(vci atm.VCI, hostIP memnet.IPAddr) {
	l.vc(vci).dst = hostIP
	l.m.Orc.SetHandler(vci, l.fromATM)
}

// fromATM is a bound VCI's receive handler, the router's re-encapsulation
// for ATM->host flow: it forwards the frame to the host, or counts it unbound.
func (l *Layer) fromATM(vci atm.VCI, frame *mbuf.Chain) {
	v := l.vc(vci)
	if v.dst != 0 {
		l.ReEncapsulated++
	}
	if l.encapTo(v, frame, v.dst) != nil {
		l.Unbound++
	}
}

// VCIShut clears a binding (the VCI_SHUT message): both mappings are
// removed and the Orc driver discards further data on the VCI.
func (l *Layer) VCIShut(vci atm.VCI) {
	v := l.vc(vci)
	v.dst, v.sendSeq = 0, 0
	l.m.Orc.Shut(vci)
}

// Bound reports whether a VCI's latest grant has an IP binding.
func (l *Layer) Bound(vci atm.VCI) bool { return int(vci) < len(l.vcs) && l.vc(vci).dst != 0 }

// vc returns vci's entry under its latest grant, growing the table to
// hold it and restarting an entry an earlier grant made.
func (l *Layer) vc(vci atm.VCI) *vcEntry {
	l.vcs = atm.Grow(l.vcs, vci)
	v := &l.vcs[vci]
	if g := l.m.Orc.Leases(vci); v.lease != g {
		*v = vcEntry{lease: g, recv: v.recv[:0]}
	}
	return v
}

// encap is the host-side encapsulation routine, called by the Orc
// driver's output path: the frame (unsegmented, no AAL5 trailer) is
// wrapped in the three-field header and sent to the configured router.
// Costs follow Table 1's send column: 58 + 8·mbufs for IPPROTO_ATM. The
// frame is consumed whatever the outcome.
func (l *Layer) encap(vci atm.VCI, frame *mbuf.Chain) error {
	return l.encapTo(l.vc(vci), frame, l.routerIP)
}

// encapTo wraps the frame for v's VCI and sends it to dst, refusing it
// without one: a host with no target router, a VCI bound to no host.
func (l *Layer) encapTo(v *vcEntry, frame *mbuf.Chain, dst memnet.IPAddr) error {
	meter := l.m.Meter
	switch {
	case dst == 0:
		frame.Release()
		return errNoRouter
	case len(l.localAddr) > 255:
		frame.Release()
		return errAddrTooBig
	}
	// Header build and sequence stamp.
	meter.Charge(cost.ProtoATM, cost.ProtoATMHeaderBuild)
	seq := v.sendSeq
	meter.Charge(cost.ProtoATM, cost.ProtoATMSeqStamp)
	v.sendSeq = seq + 1
	// Forwarding-address lookup.
	meter.Charge(cost.ProtoATM, cost.ProtoATMRouteLookup)
	// Length walk over the chain (computing the IP length field).
	meter.Charge(cost.ProtoATM, cost.ProtoATMLenWalkBase)
	meter.ChargePerMbuf(cost.ProtoATM, frame.Count())
	if l.checksum {
		meter.Charge(cost.ProtoATM, cost.ProtoATMChecksum)
	}
	l.Encapsulated++
	if frame.TC.Sampled() {
		// Mark encap time; the receiving layer's input records the
		// IP transit as one span.
		frame.TCAt = l.m.E.Now()
	}
	var hdr [maxHeaderLen]byte
	frame.Prepend(appendHeader(hdr[:0], l.localAddr, seq, v.lease.VCI, l.checksum))
	return l.m.IP.SendChain(dst, memnet.ProtoATM, frame)
}

// input receives IPPROTO_ATM packets from IP.
func (l *Layer) input(pkt *memnet.Packet) {
	meter := l.m.Meter
	chain := pkt.Payload
	var pre [2]byte
	if chain.CopyTo(pre[:]) < 2 || !chain.Pullup(headerLen(pre[0], pre[1])) {
		chain.Release()
		return
	}
	h, n, err := decode(chain.Head().Data())
	if err != nil {
		if errors.Is(err, errBadChecksum) {
			l.ChecksumErrors++
		}
		chain.Release()
		return
	}
	chain.TrimFront(n)
	l.Decapsulated++
	if chain.TC.Sampled() {
		now := l.m.E.Now()
		l.m.TraceC.Record(chain.TC, "protoatm", "ip.transit", chain.TCAt, now)
		chain.TCAt = now
	}

	if l.mode == RouterMode {
		// §9: switching an encapsulated packet adds 39 instructions —
		// decapsulation checks, VCI table lookup, and the Orc hand-off.
		meter.Charge(cost.ProtoATM, cost.RouterDecapChecks)
		l.checkSeq(h)
		meter.Charge(cost.ProtoATM, cost.RouterVCILookup)
		meter.Charge(cost.ProtoATM, cost.RouterReEncap)
		l.Switched++
		// Hand the mbuf chain to the Orc driver along with the VCI; the
		// Hobbit board does trailer, segmentation and transmission. The
		// driver consumes the chain even when it refuses it (a shut VCI).
		if l.m.Orc.Output(h.vci, chain) != nil {
			l.m.Obs.Counter("protoatm.refused").Inc()
		}
		return
	}

	// Host receive path: Table 1's 36 instructions.
	meter.Charge(cost.ProtoATM, cost.ProtoATMHeaderLoad)
	meter.Charge(cost.ProtoATM, cost.ProtoATMSeqCheck)
	l.checkSeq(h)
	meter.Charge(cost.ProtoATM, cost.ProtoATMVCILookup)
	meter.Charge(cost.ProtoATM, cost.ProtoATMHandoff)
	l.m.Orc.Input(h.vci, chain)
}

// checkSeq verifies per-source per-VCI sequencing, counting gaps and
// reorderings, then resynchronizes. A VCI has a source or two, so a
// short list beats a map, and string(h.src) compares without allocating.
func (l *Layer) checkSeq(h header) {
	v := l.vc(h.vci)
	for i := range v.recv {
		if r := &v.recv[i]; r.src == string(h.src) {
			if h.seq != r.next {
				l.OutOfOrder++
			}
			r.next = h.seq + 1
			return
		}
	}
	v.recv = append(v.recv, seqEntry{src: string(h.src), next: h.seq + 1})
}
