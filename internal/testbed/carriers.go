package testbed

import (
	"fmt"
	"time"

	"xunet/internal/atm"
	"xunet/internal/hobbit"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/qos"
)

// This file implements the §5.4 design-choice ablation (experiment X2):
// the paper chose to encapsulate AAL frames in *raw IP* rather than
// over TCP ("not only inefficient, but also could cause complex
// interactions between PF_XUNET flow control and TCP flow control") or
// over UDP ("buys us little functionality for the efficiency loss").
// The alternative carriers below replace a host's Orc output backend so
// the same PF_XUNET workload can run over each and be compared.

// Carrier identifies the encapsulation transport.
type Carrier int

// The three carriers of §5.4.
const (
	CarrierRawIP Carrier = iota // the paper's design (IPPROTO_ATM)
	CarrierUDP                  // datagram encapsulation
	CarrierTCP                  // stream encapsulation
)

// String names the carrier.
func (c Carrier) String() string {
	switch c {
	case CarrierRawIP:
		return "raw-ip"
	case CarrierUDP:
		return "udp"
	case CarrierTCP:
		return "tcp"
	}
	return fmt.Sprintf("carrier(%d)", int(c))
}

// tunnelPort carries alternative-carrier frames between host and
// router.
const tunnelPort = 7177

// tunnelHeader prefixes each tunneled frame: vci(2) seq(4).
func tunnelHeader(vci atm.VCI, seq uint32) []byte {
	return []byte{byte(vci >> 8), byte(vci), byte(seq >> 24), byte(seq >> 16), byte(seq >> 8), byte(seq)}
}

func parseTunnel(b []byte) (atm.VCI, uint32, []byte, bool) {
	if len(b) < 6 {
		return 0, 0, nil, false
	}
	vci := atm.VCI(uint16(b[0])<<8 | uint16(b[1]))
	seq := uint32(b[2])<<24 | uint32(b[3])<<16 | uint32(b[4])<<8 | uint32(b[5])
	return vci, seq, b[6:], true
}

// CarrierStats counts tunneled traffic for the ablation.
type CarrierStats struct {
	FramesSent      uint64
	FramesDelivered uint64
	OutOfOrder      uint64
	OutputErrors    uint64
	LastErr         error
}

// UseUDPCarrier rewires host's Orc output to encapsulate frames in
// datagrams addressed to the router, and installs the router-side
// receiver that hands them to the router's Orc (and on to the Hobbit
// board). Returns the shared stats.
func UseUDPCarrier(host *Host) (*CarrierStats, error) {
	st := &CarrierStats{}
	router := host.Router
	var seq uint32
	recvSeq := map[atm.VCI]uint32{}
	err := router.Stack.M.IP.BindDatagram(tunnelPort, func(src memnet.IPAddr, sport uint16, data []byte) {
		vci, s, frame, ok := parseTunnel(data)
		if !ok {
			return
		}
		if want, seen := recvSeq[vci]; seen && s != want {
			st.OutOfOrder++
		}
		recvSeq[vci] = s + 1
		st.FramesDelivered++
		orc := router.Stack.M.Orc
		_ = orc.Output(vci, orc.Pool.FromBytes(frame))
	})
	if err != nil {
		return nil, err
	}
	host.Stack.M.Orc.SetEncap(func(vci atm.VCI, frame *mbuf.Chain) error {
		st.FramesSent++
		payload := append(tunnelHeader(vci, seq), frame.Bytes()...)
		frame.Release()
		seq++
		return host.Stack.M.IP.SendDatagram(router.Stack.M.IP.Addr, tunnelPort, tunnelPort, payload)
	})
	return st, nil
}

// UseTCPCarrier rewires host's Orc output to a reliable stream to the
// router — the design the paper rejected. Frames survive loss (the
// stream retransmits) but inherit the stream's flow control and
// head-of-line blocking, interacting with PF_XUNET's own pacing.
func UseTCPCarrier(host *Host) (*CarrierStats, error) {
	st := &CarrierStats{}
	router := host.Router
	l, err := router.Stack.M.IP.ListenStream(tunnelPort)
	if err != nil {
		return nil, err
	}
	l.OnAccept(func(*memnet.Stream) memnet.Receiver { return &tunnelEnd{st: st, orc: router.Stack.M.Orc} })
	// The host side dials once and keeps the stream for all frames.
	cli := &tunnelEnd{}
	conn, err := host.Stack.M.IP.Dial(router.Stack.M.IP.Addr, tunnelPort, cli)
	if err != nil {
		return nil, err
	}
	var seq uint32
	host.Stack.M.Orc.SetEncap(func(vci atm.VCI, frame *mbuf.Chain) error {
		payload := append(tunnelHeader(vci, seq), frame.Bytes()...)
		frame.Release()
		if !cli.up {
			return fmt.Errorf("testbed: tcp tunnel not connected")
		}
		st.FramesSent++
		seq++
		return conn.Send(payload)
	})
	return st, nil
}

// tunnelEnd is one end of the TCP carrier: the host's is usable once its
// dial completes; the router's hands each frame that arrives to its Orc.
type tunnelEnd struct {
	st  *CarrierStats
	orc *hobbit.Driver
	up  bool
}

func (t *tunnelEnd) Dialed(err error) { t.up = err == nil }

func (t *tunnelEnd) Deliver(data []byte) {
	vci, _, frame, ok := parseTunnel(data)
	if !ok {
		return
	}
	t.st.FramesDelivered++
	if err := t.orc.Output(vci, t.orc.Pool.FromBytes(frame)); err != nil {
		t.st.OutputErrors++
		t.st.LastErr = err
	}
}

func (t *tunnelEnd) EOF() {}

// TransferResult reports one carrier transfer run.
type TransferResult struct {
	Delivered uint64
	// Elapsed is virtual time from the first send to the last delivery.
	Elapsed time.Duration
}

// ThroughputBps converts the result to delivered bits per second of
// virtual time for frames of the given size.
func (r TransferResult) ThroughputBps(frameSize int) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Delivered) * float64(frameSize) * 8 / r.Elapsed.Seconds()
}

// RunCarrierTransfer pushes count frames of size bytes from a host
// process through the current carrier to a sink on its router,
// provisioning a hairpin circuit through the router's attachment
// switch. The VCIs are preauthorized with the signaling entity: this is
// a raw data-path experiment with no call setup in the loop.
func RunCarrierTransfer(n *Net, host *Host, count, size int, pace time.Duration) (TransferResult, error) {
	router := host.Router
	vc, err := n.Fabric.SetupVC(router.Stack.Addr, router.Stack.Addr, qos.BestEffortQoS)
	if err != nil {
		return TransferResult{}, err
	}
	router.Sig.SH.AllowPVC(vc.SrcVCI)
	router.Sig.SH.AllowPVC(vc.DstVCI)
	var got uint64
	var firstSend, lastDelivery time.Duration
	router.Stack.Spawn("carrier-sink", func(p *kern.Proc) {
		sock, err := router.Stack.PF.Socket(p)
		if err != nil {
			return
		}
		if err := sock.Bind(vc.DstVCI, 0); err != nil {
			return
		}
		for {
			if _, err := sock.Recv(); err != nil {
				return
			}
			got++
			lastDelivery = p.SP.Now()
		}
	})
	host.Stack.Spawn("carrier-source", func(p *kern.Proc) {
		sock, err := host.Stack.PF.Socket(p)
		if err != nil {
			return
		}
		if err := sock.Connect(vc.SrcVCI, 0); err != nil {
			return
		}
		p.SP.Sleep(10 * time.Millisecond) // settle
		firstSend = p.SP.Now()
		payload := make([]byte, size)
		for i := 0; i < count; i++ {
			_ = sock.Send(payload)
			if pace > 0 {
				p.SP.Sleep(pace)
			}
		}
		// Hold the circuit open until the run ends: exiting would close
		// the socket, VCI_SHUT the router's forwarding state, and cut
		// off any frames a reliable carrier is still retransmitting —
		// exactly the flow-control interaction §5.4 warns about, shown
		// separately in the loss-behaviour test.
		p.SP.Park()
	})
	n.E.RunUntil(n.E.Now() + time.Minute)
	return TransferResult{Delivered: got, Elapsed: lastDelivery - firstSend}, nil
}
