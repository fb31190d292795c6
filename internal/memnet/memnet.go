// Package memnet simulates the IP internetwork between Xunet hosts and
// routers: nodes, point-to-point links with rate and propagation delay,
// IP forwarding with TTL, and per-protocol dispatch by IP protocol
// number.
//
// The paper's hosts reach their router over "reliable FDDI links", and
// links here are lossless and in order unless a fault plane is attached
// to the sending node (Node.SetFaults): the plane, drawing from its own
// seeded stream, then loses, duplicates or delays each packet the node
// transmits, which exercises the AAL5 and IPPROTO_ATM detection
// machinery without touching the workload's random sequence. Two
// transports are built on the raw layer: a reliable, ordered, framed
// message stream (the TCP stand-in the signaling IPC runs over) and a
// fire-and-forget datagram service (the UDP baseline of experiment E6).
package memnet

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"xunet/internal/cost"
	"xunet/internal/faults"
	"xunet/internal/mbuf"
	"xunet/internal/obs/tseries"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// IPAddr is a 32-bit IPv4-style address.
type IPAddr uint32

// String renders the address as a dotted quad.
func (a IPAddr) String() string {
	b := strconv.AppendUint(make([]byte, 0, len("255.255.255.255")), uint64(byte(a>>24)), 10)
	for _, o := range [3]byte{byte(a >> 16), byte(a >> 8), byte(a)} {
		b = strconv.AppendUint(append(b, '.'), uint64(o), 10)
	}
	return string(b)
}

// IP4 builds an address from four octets.
func IP4(a, b, c, d byte) IPAddr {
	return IPAddr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// IP protocol numbers used in the simulation.
const (
	protoStream   = 6   // reliable framed stream (TCP stand-in)
	protoDatagram = 17  // datagram service (UDP stand-in)
	ProtoATM      = 114 // IPPROTO_ATM, the paper's new raw protocol
)

// ipHeaderSize is charged against link capacity for every packet.
const ipHeaderSize = 20

// defaultTTL bounds forwarding loops.
const defaultTTL = 32

// Packet is an IP packet in flight. Payload is an mbuf chain so that
// the encapsulation layers above can preserve chain shape end to end; a
// protocol handler owns it, but must not keep pkt. Every packet travels
// in a record from the sender's free list that goes home wherever the
// packet ends (reclaim): links never cross engines, so home is on the
// packet's own shard.
type Packet struct {
	Src, Dst IPAddr
	Proto    uint8
	TTL      uint8
	Payload  *mbuf.Chain

	// at is the node the packet is in flight to: the arrival event
	// carries the packet itself (hop), so a transmission costs no closure.
	at *Node
	// home is the node whose free list the record came from.
	home *Node
}

// len is the wire length charged to links.
func (p *Packet) len() int { return ipHeaderSize + p.Payload.Len() }

// ProtoHandler receives packets addressed to a node for one protocol.
type ProtoHandler func(pkt *Packet)

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	RateBps uint64        // serialization rate; 0 means infinite
	Delay   time.Duration // propagation delay
}

// FDDI returns the paper's host–router LAN: fast and reliable.
func FDDI() LinkConfig {
	return LinkConfig{RateBps: 100_000_000, Delay: 100 * time.Microsecond}
}

// link is one direction of a connection between two nodes.
type link struct {
	from, to  *Node
	cfg       LinkConfig
	busyUntil time.Duration

	// Sent and Dropped count packets for the link's time series.
	Sent    uint64
	Dropped uint64
}

// Network is the internetwork. All methods must be called from inside
// the simulation (engine or process context).
type Network struct {
	Engine *sim.Engine
	nodes  map[IPAddr]*Node
}

// New returns an empty internetwork on engine e.
func New(e *sim.Engine) *Network {
	return &Network{Engine: e, nodes: make(map[IPAddr]*Node)}
}

// Node is a machine with an IP interface.
type Node struct {
	Name string
	Addr IPAddr

	// eng is the engine this node's events run on. Flat networks put
	// every node on Network.Engine; a sharded testbed places each
	// domain's nodes on that domain's shard (AddNodeOn), and Connect
	// refuses links between engines — cross-shard traffic must ride the
	// xswitch boundary trunks, whose delay funds the group lookahead.
	eng *sim.Engine

	// faults, when non-nil, injects seeded packet loss, duplication and
	// extra delay on links this node originates; testbeds give each
	// domain its own plane so fault draws stay deterministic per shard.
	faults *faults.Plane

	// Meter, when set, is charged the Table 1 IP costs for packets this
	// node originates or receives; the stream and datagram services draw
	// the chains they send from Pool.
	Meter *cost.Meter
	Pool  *mbuf.Pool

	links     map[*Node]*link // neighbor -> outgoing link
	routes    map[IPAddr]*Node
	defaultGw *Node
	protos    [256]ProtoHandler

	streams  *streamLayer
	pkts     sim.FreeList[Packet] // records of packets this node sent
	dgrams   map[uint16]DatagramHandler
	nextPort uint16

	// Forwarded counts packets this node relayed for others.
	Forwarded uint64
	// Delivered counts packets handed to a local protocol handler.
	Delivered uint64
	// NoRoute counts packets dropped for lack of a route or handler.
	NoRoute uint64
}

// Errors from the IP layer.
var (
	errDupAddr   = errors.New("memnet: address already in use")
	errNoRoute   = errors.New("memnet: no route to destination")
	errPortInUse = errors.New("memnet: port already bound")
	// errNoPort reports a dial on a node whose every ephemeral port,
	// 10000–65535, is held.
	errNoPort = errors.New("memnet: no free ephemeral port")
)

// AddNodeOn registers a machine whose events run on engine e — the
// shard-placement entry point. e must be the network engine or a shard
// of the same group.
func (n *Network) AddNodeOn(name string, addr IPAddr, e *sim.Engine) (*Node, error) {
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("%w: %v", errDupAddr, addr)
	}
	nd := &Node{
		Name:     name,
		Addr:     addr,
		eng:      e,
		links:    make(map[*Node]*link),
		routes:   make(map[IPAddr]*Node),
		dgrams:   make(map[uint16]DatagramHandler),
		nextPort: 10000,
	}
	nd.streams = newStreamLayer(nd)
	n.nodes[addr] = nd
	return nd, nil
}

// MustAddNode is AddNodeOn the network's default engine, for test and
// scenario construction.
func (n *Network) MustAddNode(name string, addr IPAddr) *Node {
	nd, err := n.AddNodeOn(name, addr, n.Engine)
	if err != nil {
		panic(err)
	}
	return nd
}

// SetFaults attaches the fault plane that decides the fate of every
// packet this node transmits on a link (nil detaches it: lossless).
func (nd *Node) SetFaults(fp *faults.Plane) { nd.faults = fp }

// RegisterTSeries tracks in st the load signals of every link whose
// originating node lives on engine own: packet and drop rates plus
// occupancy — how far the transmit queue's busy horizon extends past
// the current instant, in nanoseconds. Each shard's store so samples
// only state its own engine mutates, and the scrape needs no cross-shard
// reads. Nodes and their neighbors enumerate in sorted order so
// registration (and the export) is deterministic.
func (n *Network) RegisterTSeries(st *tseries.Store, own *sim.Engine) {
	if st == nil {
		return
	}
	byAddr := func(p, q *Node) int { return cmp.Compare(p.Addr, q.Addr) }
	for _, a := range slices.Sorted(maps.Keys(n.nodes)) {
		nd := n.nodes[a]
		if nd.eng != own {
			continue
		}
		for _, p := range slices.SortedFunc(maps.Keys(nd.links), byAddr) {
			l := nd.links[p]
			prefix := "ip.link." + nd.Name + ">" + p.Name + "."
			st.TrackRateFunc(prefix+"pkts", func() uint64 { return l.Sent }, 0, 0)
			st.TrackRateFunc(prefix+"drops", func() uint64 { return l.Dropped }, 0, 0)
			st.TrackGaugeFunc(prefix+"busy_ns", func() (int64, int64) {
				busy := int64(l.busyUntil - l.from.eng.Now())
				busy = max(busy, 0)
				return busy, busy
			})
		}
	}
}

// Connect joins two nodes with a duplex link, both directions using cfg.
// Both nodes must live on the same engine: an IP link has no minimum
// delay, so it cannot cross a shard boundary (only xswitch trunks, with
// their lookahead-funding propagation delay, may).
func (n *Network) Connect(a, b *Node, cfg LinkConfig) {
	if a.eng != b.eng {
		panic(fmt.Sprintf("memnet: Connect %s<->%s across shard engines", a.Name, b.Name))
	}
	a.links[b] = &link{from: a, to: b, cfg: cfg}
	b.links[a] = &link{from: b, to: a, cfg: cfg}
}

// AddRoute sends traffic for dst via the given neighbor.
func (nd *Node) AddRoute(dst IPAddr, via *Node) { nd.routes[dst] = via }

// SetDefaultRoute sends all non-local traffic via the given neighbor.
func (nd *Node) SetDefaultRoute(via *Node) { nd.defaultGw = via }

// BindProto registers the handler for an IP protocol number, replacing
// any previous handler.
func (nd *Node) BindProto(proto uint8, h ProtoHandler) { nd.protos[proto] = h }

// SendChain originates a packet carrying chain, which belongs to the
// network from the call on, whatever the outcome. The Table 1 IP send
// cost is charged to the node's meter.
func (nd *Node) SendChain(dst IPAddr, proto uint8, chain *mbuf.Chain) error {
	pkt := nd.pkts.Get()
	*pkt = Packet{Src: nd.Addr, Dst: dst, Proto: proto, TTL: defaultTTL, Payload: chain, home: nd}
	nd.Meter.Charge(cost.IP, cost.IPSendCost)
	return nd.route(pkt)
}

// Audit states the node's free lists: every packet it sent and every
// loopback segment has ended. No reader waits behind another on a
// listener or a connection: sim.Queue panics at the get that would.
func (nd *Node) Audit(check sim.Audit) {
	check("packets", nd.pkts.Outstanding(), 0)
	check("loop segments", nd.streams.segs.Outstanding(), 0)
}

// reclaim sends a record home; every path a packet ends on calls it once.
func reclaim(pkt *Packet) {
	h := pkt.home
	*pkt = Packet{}
	h.pkts.Put(pkt)
}

// discard ends a packet that reached no handler.
func discard(pkt *Packet) {
	pkt.Payload.Release()
	reclaim(pkt)
}

// route transmits toward the destination: locally delivered, or out the
// next-hop link. Loopback delivery is deferred to an event so that a
// reply can never race ahead of the sender's next action (a dialer must
// park before its SYN-ACK lands). A connection's loopback segments keep
// that rule in the stream layer (loopSeg), which applies an ACK in
// place only where nothing could tell it from the event.
func (nd *Node) route(pkt *Packet) error {
	if pkt.Dst == nd.Addr {
		pkt.hop(0, nd)
		return nil
	}
	via := nd.routes[pkt.Dst]
	if via == nil {
		via = nd.defaultGw
	}
	if via == nil {
		err := fmt.Errorf("%w: %v from %v", errNoRoute, pkt.Dst, nd.Name)
		nd.drop(pkt)
		return err
	}
	l := nd.links[via]
	if l == nil {
		nd.drop(pkt)
		return fmt.Errorf("%w: no link %v -> %v", errNoRoute, nd.Name, via.Name)
	}
	l.transmit(pkt)
	return nil
}

// hop schedules pkt's arrival at node at, d from now.
func (pkt *Packet) hop(d time.Duration, at *Node) {
	pkt.at = at
	at.eng.ScheduleArg(d, packetArrive, pkt)
}

func packetArrive(arg any) {
	pkt := arg.(*Packet)
	pkt.at.receive(pkt)
}

// drop counts a packet this node could not route or deliver.
func (nd *Node) drop(pkt *Packet) {
	nd.NoRoute++
	discard(pkt)
}

// transmit models serialization and propagation, plus whatever the
// sender's fault plane decides, then schedules receive at the far end.
func (l *link) transmit(pkt *Packet) {
	e := l.from.eng
	l.Sent++
	var ser time.Duration
	if l.cfg.RateBps > 0 {
		bits := uint64(pkt.len()) * 8
		ser = time.Duration(bits * uint64(time.Second) / l.cfg.RateBps)
	}
	start := e.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	l.busyUntil = start + ser
	arrive := l.busyUntil + l.cfg.Delay - e.Now()
	var dup *Packet
	if fp := l.from.faults; fp != nil {
		v := fp.Packet(trace.Context{})
		if v.Drop {
			l.Dropped++
			discard(pkt)
			return
		}
		arrive += v.ExtraDelay
		if v.Dup {
			// A private copy, payload and record included: the original's
			// are consumed and reused by the time the duplicate lands.
			dup = l.from.pkts.Get()
			*dup = *pkt
			dup.Payload, dup.home = pkt.Payload.Clone(), l.from
		}
	}
	pkt.hop(arrive, l.to)
	if dup != nil {
		dup.hop(arrive+l.cfg.Delay/2+time.Microsecond, l.to)
	}
}

// receive handles an arriving packet: local delivery or forwarding.
func (nd *Node) receive(pkt *Packet) {
	if pkt.Dst == nd.Addr {
		nd.deliverLocal(pkt)
		return
	}
	if pkt.TTL <= 1 {
		nd.drop(pkt)
		return
	}
	pkt.TTL--
	nd.Forwarded++
	// Forwarding cost: the router's link-driver input plus IP switching;
	// accounted so experiment T1's router-path measurement can subtract
	// the base from the IPPROTO_ATM-specific 39.
	nd.Meter.Charge(cost.LinkDriver, 4)
	nd.Meter.Charge(cost.IP, cost.IPRecvCost)
	_ = nd.route(pkt)
}

// deliverLocal hands a packet to its protocol handler, charging the
// Table 1 IP receive cost.
func (nd *Node) deliverLocal(pkt *Packet) {
	nd.Meter.Charge(cost.IP, cost.IPRecvCost)
	h := nd.protos[pkt.Proto]
	if h == nil {
		nd.drop(pkt)
		return
	}
	nd.Delivered++
	h(pkt)
	reclaim(pkt)
}

// ephemeralPort allocates a local port for dialing: the next free one
// after the last handed out, sweeping 10000–65535 at most once.
func (nd *Node) ephemeralPort() (uint16, error) {
	for range 65536 - 10000 {
		nd.nextPort++
		nd.nextPort = max(nd.nextPort, 10000)
		if !nd.streams.portBusy(nd.nextPort) {
			return nd.nextPort, nil
		}
	}
	return 0, fmt.Errorf("%w on %s", errNoPort, nd.Name)
}
