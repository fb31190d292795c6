// Package hobbit models the Hobbit ATM host-interface board and the Orc
// device driver that controls it (Berenbaum, Dixon, Iyengar and Keshav,
// "Design and Implementation of a Flexible ATM Host Interface for XUNET
// II", the paper's reference [2]).
//
// The split follows the paper exactly:
//
//   - The Board is the hardware SAR engine: it computes AAL5 trailers,
//     segments frames into cells, transmits them into the fabric, and
//     reassembles arriving cells per VCI. Because this work happens on
//     the board, it costs no host instructions.
//   - The Driver (Orc) is the thin kernel entry layer. On a router its
//     output path hands an mbuf chain straight to the board; on a host —
//     which has no board — it hands the *unsegmented frame without the
//     AAL5 trailer* to the IPPROTO_ATM encapsulation routine instead,
//     which is precisely how the paper ported PF_XUNET to non-ATM hosts
//     ("replace calls from the device driver to the Hobbit board with
//     calls to the encapsulation/decapsulation layer").
//   - The Driver also owns the per-VCI handler table the router kernel
//     uses to demultiplex arriving frames to either the local PF_XUNET
//     protocol or the IP re-encapsulation routine, and honours VCI_SHUT
//     by discarding further data on a VCI.
package hobbit

import (
	"errors"
	"fmt"
	"time"

	"xunet/internal/aal5"
	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/mbuf"
	"xunet/internal/obs"
)

// CellTx transmits cells into the ATM network (implemented by
// xswitch.Endpoint).
type CellTx interface {
	SendCell(c atm.Cell)
}

// FrameHandler consumes a frame received on a VCI. The chain is owned
// by the handler after the call.
type FrameHandler func(vci atm.VCI, frame *mbuf.Chain)

// FrameOutput transmits an unsegmented, trailerless frame toward the
// network on a host without a board (the IPPROTO_ATM encapsulation
// routine), consuming it whatever the outcome.
type FrameOutput func(vci atm.VCI, frame *mbuf.Chain) error

// Errors from the driver.
var (
	ErrNoBackend = errors.New("hobbit: driver has neither board nor encapsulation output")
	ErrShutVCI   = errors.New("hobbit: VCI has been shut")
)

// Board is the Hobbit host-interface hardware model.
type Board struct {
	tx     CellTx
	driver *Driver

	// vcs is the board's per-VC SAR state, indexed by VCI as the paper's
	// tables are ("a single index into a table"); a nil entry is a VC the
	// board has not seen. ResetVC clears an entry but keeps it, and with
	// it the reassembly buffer, for the VCI's next circuit.
	vcs []*vcState

	// SAR transmit scratch, reused by every Send: the flattened SDU, the
	// CPCS-PDU built from it and the cells cut from that. Send is not
	// re-entrant — a CellTx queues cells, it does not call back into the
	// sending board.
	sdu, pdu []byte
	cells    []atm.Cell

	// Instrumentation (nil until Instrument): first-cell timestamps per
	// in-flight frame feed the hobbit.reasm.time histogram.
	now       func() time.Duration
	reasmHist *obs.Histogram

	// Counters for experiments.
	CellsOut  uint64
	CellsIn   uint64
	FramesOut uint64
	FramesIn  uint64
	SARErrors uint64 // frames lost to cell loss/corruption within a frame
	OOOFrames uint64 // out-of-order frames detected by the Xunet variant
}

// vcState is one VCI's segmentation-and-reassembly state.
type vcState struct {
	reasm aal5.Reassembler
	seqRx aal5.SeqTracker
	seqTx byte
	start time.Duration // arrival of the pending frame's first cell
}

// NewBoard returns a board transmitting through tx. Call
// Driver.AttachBoard to connect it to its driver.
func NewBoard(tx CellTx) *Board { return &Board{tx: tx} }

// vc returns the SAR state of vci, growing the table to hold it.
func (b *Board) vc(vci atm.VCI) *vcState {
	b.vcs = atm.Grow(b.vcs, vci)
	v := b.vcs[vci]
	if v == nil {
		v = &vcState{reasm: *aal5.NewReassembler(0)}
		b.vcs[vci] = v
	}
	return v
}

// Instrument registers the board's metrics in reg and starts timing AAL5
// reassembly (first cell of a frame to completed PDU) on the clock now —
// in the sim, the fabric endpoint's, which reads each cell's arrival
// time. SAR errors and out-of-order detections surface as read-through
// counters.
func (b *Board) Instrument(now func() time.Duration, reg *obs.Registry) {
	b.now = now
	b.reasmHist = reg.Histogram("hobbit.reasm.time")
	reg.Func("hobbit.cells.in", func() uint64 { b.settle(); return b.CellsIn })
	reg.Func("hobbit.cells.out", func() uint64 { return b.CellsOut })
	reg.Func("hobbit.frames.in", func() uint64 { return b.FramesIn })
	reg.Func("hobbit.frames.out", func() uint64 { return b.FramesOut })
	reg.Func("hobbit.sar.errors", func() uint64 { return b.SARErrors })
	reg.Func("hobbit.frames.ooo", func() uint64 { return b.OOOFrames })
}

// Send builds the AAL5 frame for an mbuf chain and transmits its cells.
// This happens in board hardware: no host instructions are charged.
func (b *Board) Send(vci atm.VCI, frame *mbuf.Chain) error {
	v := b.vc(vci)
	seq := v.seqTx
	v.seqTx++
	b.sdu = frame.AppendTo(b.sdu[:0])
	tc, tcAt := frame.TC, frame.TCAt
	frame.Release() // flattened into the SDU; the chain is consumed
	var err error
	if b.pdu, err = aal5.AppendFrame(b.pdu[:0], b.sdu, seq); err != nil {
		return fmt.Errorf("hobbit: %w", err)
	}
	if b.cells, err = aal5.SegmentInto(b.cells[:0], b.pdu, 0, vci); err != nil {
		return fmt.Errorf("hobbit: %w", err)
	}
	b.FramesOut++
	for i := range b.cells {
		b.CellsOut++
		if tc.Sampled() {
			b.cells[i].TC, b.cells[i].TCAt = tc, tcAt
		}
		b.tx.SendCell(b.cells[i])
	}
	return nil
}

// ReceiveCell implements the fabric's CellSink: cells are reassembled
// per VCI; completed frames are sequence-checked and handed to the
// driver's demultiplexer.
func (b *Board) ReceiveCell(c atm.Cell) {
	b.CellsIn++
	v := b.vc(c.VCI)
	if b.now != nil && v.reasm.Pending() == 0 {
		v.start = b.now()
	}
	payload, uu, done, err := v.reasm.Push(&c)
	if !done {
		return
	}
	if b.now != nil {
		b.reasmHist.Observe(b.now() - v.start)
	}
	if err != nil {
		b.SARErrors++
		return
	}
	if ok, _ := v.seqRx.Check(uu); !ok {
		// The Xunet AAL5 variant detects the gap; the frame itself is
		// still intact, so it is delivered and the event counted.
		b.OOOFrames++
	}
	b.FramesIn++
	if b.driver != nil {
		// payload lives in the VC's reassembly buffer, which the next
		// cell overwrites: the chain is the frame's own copy.
		chain := mbuf.FromBytes(payload)
		if c.TC.Sampled() {
			chain.TC = c.TC
			if b.now != nil {
				chain.TCAt = b.now()
			}
		}
		b.driver.Input(c.VCI, chain)
	}
}

// settle takes in every cell that reached the board before now: the
// simulated fabric's endpoint — the board's CellTx and its cell source —
// hands a frame's earlier cells over with its last (DESIGN.md §9).
func (b *Board) settle() {
	if s, ok := b.tx.(interface{ Settle() }); ok {
		s.Settle()
	}
}

// ResetVC discards reassembly and sequence state for a torn-down VC,
// after taking in the cells that reached the board before now.
func (b *Board) ResetVC(vci atm.VCI) {
	b.settle()
	if int(vci) < len(b.vcs) && b.vcs[vci] != nil {
		v := b.vcs[vci]
		v.reasm.Reset()
		v.seqRx, v.seqTx = aal5.SeqTracker{}, 0
	}
}

// Driver is the Orc device driver.
type Driver struct {
	Meter *cost.Meter

	board *Board
	encap FrameOutput

	vcs []drvVC // per VCI, like the board's table: handler and VCI_SHUT mark

	// DiscardedNoHandler counts frames that arrived on a VCI with no
	// registered handler; DiscardedShut counts frames dropped after
	// VCI_SHUT.
	DiscardedNoHandler uint64
	DiscardedShut      uint64
}

type drvVC struct {
	h    FrameHandler
	shut bool
}

// NewDriver returns a driver with no backend; attach a board (router)
// or an encapsulation output (host) before sending.
func NewDriver(meter *cost.Meter) *Driver { return &Driver{Meter: meter} }

// vc returns the table entry for vci (the zero entry past the end).
func (d *Driver) vc(vci atm.VCI) drvVC {
	if int(vci) < len(d.vcs) {
		return d.vcs[vci]
	}
	return drvVC{}
}

// setVC stores the entry for vci, growing the table to hold it.
func (d *Driver) setVC(vci atm.VCI, e drvVC) {
	d.vcs = atm.Grow(d.vcs, vci)
	d.vcs[vci] = e
}

// AttachBoard wires a Hobbit board to this driver (router
// configuration).
func (d *Driver) AttachBoard(b *Board) {
	d.board = b
	b.driver = d
}

// SetEncap wires the IPPROTO_ATM encapsulation routine as the output
// backend (host configuration).
func (d *Driver) SetEncap(out FrameOutput) { d.encap = out }

// Output transmits a frame on a VCI. On a router this reaches the
// board; on a host, the encapsulation layer. Matching Table 1, the
// driver send path itself costs nothing: it "simply calls the next
// layer down without touching the data or the header". The frame is
// consumed whatever the outcome.
func (d *Driver) Output(vci atm.VCI, frame *mbuf.Chain) error {
	switch {
	case d.vc(vci).shut:
		frame.Release()
		return ErrShutVCI
	case d.board != nil:
		return d.board.Send(vci, frame)
	case d.encap != nil:
		return d.encap(vci, frame)
	}
	frame.Release()
	return ErrNoBackend
}

// Input demultiplexes a received frame by VCI, charging the Table 1 Orc
// receive dispatch cost.
func (d *Driver) Input(vci atm.VCI, frame *mbuf.Chain) {
	d.Meter.Charge(cost.OrcDriver, cost.OrcRecvDispatch)
	e := d.vc(vci)
	if e.shut {
		d.DiscardedShut++
		frame.Release()
		return
	}
	if e.h == nil {
		d.DiscardedNoHandler++
		frame.Release()
		return
	}
	e.h(vci, frame)
}

// SetHandler installs the receive handler for a VCI, clearing any shut
// mark.
func (d *Driver) SetHandler(vci atm.VCI, h FrameHandler) { d.setVC(vci, drvVC{h: h}) }

// Shut honours a VCI_SHUT: the handler is removed and any further data
// arriving on the VCI is discarded. Board-side SAR state is reset.
func (d *Driver) Shut(vci atm.VCI) {
	d.setVC(vci, drvVC{shut: true})
	if d.board != nil {
		d.board.ResetVC(vci)
	}
}

// ClearVC removes all state for a VCI (orderly teardown, as opposed to
// Shut's discard mode).
func (d *Driver) ClearVC(vci atm.VCI) {
	d.setVC(vci, drvVC{})
	if d.board != nil {
		d.board.ResetVC(vci)
	}
}
