// Package cost implements the instruction-accounting model used to
// reproduce Table 1 of the paper.
//
// The paper counts instructions in the style of Clark, Jacobson, Romkey
// and Salwen ("An Analysis of TCP Processing Overhead"): protocol-specific
// work only, with procedure-call overhead and memory management excluded.
// Each protocol layer in this reproduction charges a Meter at the same
// program points a static assembly-level count would cover: header field
// reads and writes, table lookups, comparisons, and per-mbuf loop
// iterations. The per-operation constants in this package are the
// calibration of those code points against the MIPS-class instruction
// counts the paper reports; DESIGN.md §6 documents the calibration.
//
// A nil *Meter is valid and charges nothing, so hot paths may carry an
// optional meter without branching at every call site.
package cost

import (
	"fmt"
	"sort"
	"strings"
)

// Component identifies a protocol-stack component whose processing cost is
// accounted separately, matching the rows of Table 1.
type Component uint8

// Components, in the order the paper's Table 1 lists them, plus the extra
// components this reproduction accounts for (switch fabric, AAL5, kernel
// and signaling work are reported in EXPERIMENTS.md but are outside the
// Table 1 host path).
const (
	PFXunet    Component = iota // PF_XUNET socket-layer protocol processing
	OrcDriver                   // Orc device driver entry points
	ProtoATM                    // IPPROTO_ATM encapsulation/decapsulation
	IP                          // IP input/output (counts from Clark et al.)
	LinkDriver                  // FDDI/Ethernet driver (router switching path)
	Switch                      // ATM switch cell handling
	AAL5                        // AAL5 segmentation and reassembly
	Kernel                      // socket layer, pseudo-device, fd handling
	Signaling                   // sighost protocol processing
	numComponents
)

var componentNames = [numComponents]string{
	PFXunet:    "PF_XUNET",
	OrcDriver:  "Orc driver",
	ProtoATM:   "IPPROTO_ATM",
	IP:         "IP",
	LinkDriver: "Link driver",
	Switch:     "ATM switch",
	AAL5:       "AAL5",
	Kernel:     "Kernel",
	Signaling:  "Signaling",
}

// String returns the human-readable component name used in tables.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// Per-operation instruction charges. These constants decompose the
// paper's per-layer totals into the individual operations our
// implementation actually performs, so the Table 1 numbers are the *sum*
// of charges made by real code paths rather than single magic constants.
//
// Receive path at a host (total 194 + 8·mbufs):
//
//	IP input                     57   (Clark et al. receive count)
//	IPPROTO_ATM decap            36   = header load (12) + sequence check (9)
//	                                  + VCI handler lookup (9) + hand-off (6)
//	Orc driver input              2   = per-VCI handler dispatch
//	PF_XUNET input        99 + 8·m   = PCB index (11) + socket state checks (22)
//	                                  + address fixup (18) + sbappend bookkeeping (48)
//	                                  + 8 per mbuf walked
//
// Send path at a host (total 119 + 8·mbufs):
//
//	PF_XUNET output               0   (falls through to the driver untouched)
//	Orc driver output             0   (hands the mbuf pointer to encapsulation)
//	IPPROTO_ATM encap     58 + 8·m   = header build (21) + sequence stamp (8)
//	                                  + route/config lookup (14) + length walk
//	                                    (15 fixed + 8 per mbuf)
//	IP output                    61   (Clark et al. send count)
//
// Router switching path for an encapsulated packet (total +39):
//
//	decap checks (17) + VCI table lookup (9) + re-encap fixup (13)
const (
	// IP constants, taken unchanged from Clark et al. as the paper does.
	IPRecvCost = 57
	IPSendCost = 61

	// IPPROTO_ATM decapsulation (receive side).
	ProtoATMHeaderLoad = 12
	ProtoATMSeqCheck   = 9
	ProtoATMVCILookup  = 9
	ProtoATMHandoff    = 6
	// IPPROTO_ATM encapsulation (send side).
	ProtoATMHeaderBuild = 21
	ProtoATMSeqStamp    = 8
	ProtoATMRouteLookup = 14
	ProtoATMLenWalkBase = 15

	// ProtoATMChecksum is the extra cost of the optional encapsulation
	// header checksum (off by default, as in the paper; §7.4 notes it
	// "could be added ... if needed").
	ProtoATMChecksum = 12

	// Orc driver.
	OrcRecvDispatch = 2

	// PF_XUNET input path.
	PFXunetPCBIndex    = 11
	PFXunetStateChecks = 22
	PFXunetAddrFixup   = 18
	PFXunetSbAppend    = 48

	// Per-mbuf walking cost, charged once per mbuf in a chain on both the
	// PF_XUNET receive path and the IPPROTO_ATM send path.
	PerMbuf = 8

	// Router switching path for an encapsulated packet (§9: 39 instructions
	// on top of driver input, IP switching and Orc output).
	RouterDecapChecks = 17
	RouterVCILookup   = 9
	RouterReEncap     = 13
)

// Meter accumulates instruction counts per component. The zero value is
// ready to use, and a nil receiver is valid and records nothing. A meter
// has one owner: a kern.Machine, whose events all run on one engine, so
// its counts are plain integers and it is not safe for concurrent use.
type Meter struct {
	counts [numComponents]int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Charge adds n instructions to component c. Charging a nil meter or a
// non-positive n is a no-op.
func (m *Meter) Charge(c Component, n int64) {
	if m == nil || n <= 0 || int(c) >= int(numComponents) {
		return
	}
	m.counts[c] += n
}

// ChargePerMbuf adds the fixed per-mbuf walking cost for an n-mbuf chain
// to component c.
func (m *Meter) ChargePerMbuf(c Component, mbufs int) {
	if mbufs > 0 {
		m.Charge(c, int64(mbufs)*PerMbuf)
	}
}

// Snapshot captures the meter state for reporting.
func (m *Meter) Snapshot() Snapshot {
	s := Snapshot{}
	if m == nil {
		return s
	}
	for i := range m.counts {
		if v := m.counts[i]; v != 0 {
			s[Component(i)] = v
		}
	}
	return s
}

// Snapshot is an immutable view of per-component instruction counts.
type Snapshot map[Component]int64

// Total sums the snapshot across components.
func (s Snapshot) Total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// Sub returns the per-component difference s − prev, dropping zero rows.
// It is the usual way to isolate the cost of one operation: snapshot,
// run, snapshot again, subtract.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{}
	for c, v := range s {
		if dv := v - prev[c]; dv != 0 {
			d[c] = dv
		}
	}
	for c, v := range prev {
		if _, ok := s[c]; !ok && v != 0 {
			d[c] = -v
		}
	}
	return d
}

// String renders the snapshot as an aligned table in component order,
// matching the layout of Table 1.
func (s Snapshot) String() string {
	type row struct {
		c Component
		v int64
	}
	rows := make([]row, 0, len(s))
	for c, v := range s {
		rows = append(rows, row{c, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].c < rows[j].c })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d\n", r.c, r.v)
	}
	fmt.Fprintf(&b, "%-12s %8d\n", "Total", s.Total())
	return b.String()
}
