package memnet

import "fmt"

// The datagram service is the simulation's UDP stand-in: unreliable,
// unordered, connectionless message delivery. Experiment E6 compares
// IPPROTO_ATM encapsulation throughput against this baseline, mirroring
// the paper's "we expect throughput between a host and a router to be
// comparable to that of UDP".

const dgramHeaderSize = 4 // sport(2) dport(2)

// DatagramHandler receives datagrams addressed to a bound port.
type DatagramHandler func(src IPAddr, sport uint16, data []byte)

// BindDatagram binds a handler to a local datagram port.
func (nd *Node) BindDatagram(port uint16, h DatagramHandler) error {
	if _, dup := nd.dgrams[port]; dup {
		return fmt.Errorf("%w: datagram port %d on %s", errPortInUse, port, nd.Name)
	}
	nd.dgrams[port] = h
	if len(nd.dgrams) == 1 {
		nd.BindProto(protoDatagram, nd.datagramInput)
	}
	return nil
}

// SendDatagram sends one datagram. Delivery is best effort: loss, and
// reordering follow the link configuration.
func (nd *Node) SendDatagram(dst IPAddr, dport, sport uint16, data []byte) error {
	hdr := [dgramHeaderSize]byte{byte(sport >> 8), byte(sport), byte(dport >> 8), byte(dport)}
	chain := nd.Pool.FromBytes(hdr[:])
	chain.AppendBytes(data)
	return nd.SendChain(dst, protoDatagram, chain)
}

func (nd *Node) datagramInput(pkt *Packet) {
	b := pkt.Payload.Bytes()
	pkt.Payload.Release() // flattened copy taken; recycle the mbufs
	if len(b) < dgramHeaderSize {
		return
	}
	sport := uint16(b[0])<<8 | uint16(b[1])
	dport := uint16(b[2])<<8 | uint16(b[3])
	if h, ok := nd.dgrams[dport]; ok {
		h(pkt.Src, sport, b[dgramHeaderSize:])
	}
}
