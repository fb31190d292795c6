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

// cellTx transmits cells into the ATM network (implemented by
// xswitch.Endpoint).
type cellTx interface {
	SendCell(c atm.Cell)
}

// cellsTx is a cellTx taking a frame's cells in one call.
type cellsTx interface{ SendCells(cells []atm.Cell) }

// frameHandler consumes a frame received on a VCI. The chain is owned
// by the handler after the call.
type frameHandler func(vci atm.VCI, frame *mbuf.Chain)

// frameOutput transmits an unsegmented, trailerless frame toward the
// network on a host without a board (the IPPROTO_ATM encapsulation
// routine), consuming it whatever the outcome.
type frameOutput func(vci atm.VCI, frame *mbuf.Chain) error

// Errors from the driver.
var (
	errNoBackend = errors.New("hobbit: driver has neither board nor encapsulation output")
	errShutVCI   = errors.New("hobbit: VCI has been shut")
)

// Board is the Hobbit host-interface hardware model.
type Board struct {
	tx     cellTx
	driver *Driver

	// vcs is the board's per-VC SAR state, indexed by VCI as the paper's
	// tables are ("a single index into a table"); a nil entry is a VC the
	// board has not seen. resetVC clears an entry but keeps it, and with
	// it the reassembly buffer, for the VCI's next circuit.
	vcs []*vcState

	// SAR transmit scratch, reused by every send: the CPCS-PDU, framed
	// in place around the flattened chain, and the cells cut from it.
	// send is not re-entrant — a cellTx queues cells, it does not call
	// back into the sending board.
	pdu   []byte
	cells []atm.Cell

	// Instrumentation (a zero clock and no histogram until Instrument):
	// first-cell timestamps per in-flight frame feed hobbit.reasm.time.
	now       func() time.Duration
	reasmHist *obs.Histogram

	// Counters for experiments: SARErrors counts frames lost to cell loss
	// or corruption within a frame, OOOFrames the out-of-order frames the
	// Xunet variant detects.
	CellsOut, CellsIn, FramesOut, FramesIn, SARErrors, OOOFrames uint64
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
func NewBoard(tx cellTx) *Board {
	return &Board{tx: tx, now: func() time.Duration { return 0 }}
}

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

// send builds the AAL5 frame for an mbuf chain and transmits its cells.
// This happens in board hardware: no host instructions are charged.
func (b *Board) send(vci atm.VCI, frame *mbuf.Chain) error {
	v := b.vc(vci)
	b.pdu = frame.AppendTo(b.pdu[:0])
	tc, tcAt := frame.TC, frame.TCAt
	frame.Release() // flattened into the PDU; the chain is consumed
	var err error
	if b.pdu, err = aal5.AppendTrailer(b.pdu, 0, v.seqTx); err != nil {
		return fmt.Errorf("hobbit: %w", err)
	}
	if b.cells, err = aal5.SegmentInto(b.cells[:0], b.pdu, 0, vci); err != nil {
		return fmt.Errorf("hobbit: %w", err)
	}
	v.seqTx++ // only a frame that leaves takes a sequence number
	b.FramesOut++
	b.CellsOut += uint64(len(b.cells))
	if tc.Sampled() {
		for i := range b.cells {
			b.cells[i].TC, b.cells[i].TCAt = tc, tcAt
		}
	}
	if tx, ok := b.tx.(cellsTx); ok {
		tx.SendCells(b.cells)
		return nil
	}
	for i := range b.cells {
		b.tx.SendCell(b.cells[i])
	}
	return nil
}

// ReceiveCell implements the fabric's CellSink: one cell, arriving now.
func (b *Board) ReceiveCell(c atm.Cell) { b.ReceiveRun([]atm.Cell{c}, c.VCI, b.now(), 0) }

// ReceiveRun implements the fabric's RunSink: cells arriving on vci, the
// k-th at at+k·gap, are reassembled per VCI in one call; completed
// frames are sequence-checked and handed to the driver's demultiplexer.
// Reassembly is timed from a frame's first cell's arrival to its last's.
func (b *Board) ReceiveRun(cells []atm.Cell, vci atm.VCI, at, gap time.Duration) {
	b.CellsIn += uint64(len(cells))
	v := b.vc(vci)
	for k := range cells {
		c, cellAt := &cells[k], at+time.Duration(k)*gap
		if v.reasm.Pending() == 0 {
			v.start = cellAt
		}
		payload, uu, done, err := v.reasm.Push(c)
		if !done {
			continue
		}
		if b.reasmHist != nil {
			b.reasmHist.Observe(cellAt - v.start)
		}
		if err != nil {
			b.SARErrors++
			continue
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
			chain := b.driver.Pool.FromBytes(payload)
			if c.TC.Sampled() {
				chain.TC = c.TC
				if b.reasmHist != nil {
					chain.TCAt = cellAt
				}
			}
			b.driver.Input(vci, chain)
		}
	}
}

// settle takes in every cell that reached the board before now: the
// simulated fabric's endpoint — the board's cellTx and its cell source —
// hands a frame's earlier cells over with its last (DESIGN.md §9).
func (b *Board) settle() {
	if s, ok := b.tx.(interface{ Settle() }); ok {
		s.Settle()
	}
}

// resetVC discards a VCI's reassembly and sequence state, torn down or
// newly granted, after taking in the cells that reached the board before now.
func (b *Board) resetVC(vci atm.VCI) {
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
	// Pool is where the board draws the chains it reassembles.
	Pool *mbuf.Pool

	board *Board
	encap frameOutput
	// Leases reads each VCI's latest grant: the fabric endpoint's on a
	// router; NewDriver's holds every VCI under generation 0.
	Leases func(atm.VCI) atm.Lease

	vcs []drvVC // per VCI, like the board's table

	// DiscardedNoHandler counts frames that arrived on a VCI with no
	// registered handler; DiscardedShut counts frames dropped after
	// VCI_SHUT; StaleLeases counts mutations naming a superseded grant.
	DiscardedNoHandler, DiscardedShut, StaleLeases uint64
}

// drvVC is one VCI's entry, made under lease: a receive handler, or none
// after VCI_SHUT. Neither the zero entry nor a superseded one is live.
type drvVC struct {
	h     frameHandler
	lease atm.Lease
}

// NewDriver returns a driver with no backend; attach a board (router)
// or an encapsulation output (host) before sending.
func NewDriver(meter *cost.Meter) *Driver {
	return &Driver{Meter: meter, Leases: func(vci atm.VCI) atm.Lease { return atm.Lease{VCI: vci} }}
}

// vc returns the live entry for vci (the zero entry if there is none).
func (d *Driver) vc(vci atm.VCI) drvVC {
	if int(vci) < len(d.vcs) && d.vcs[vci].lease.VCI == vci && d.vcs[vci].lease == d.Leases(vci) {
		return d.vcs[vci]
	}
	return drvVC{}
}

// set stores vci's entry, resetting the board's SAR state at a teardown
// and at a new grant's first entry, so each circuit starts clean.
func (d *Driver) set(vci atm.VCI, e drvVC) {
	d.vcs = atm.Grow(d.vcs, vci)
	if (e.h == nil || d.vcs[vci].lease != e.lease) && d.board != nil {
		d.board.resetVC(vci)
	}
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
func (d *Driver) SetEncap(out frameOutput) { d.encap = out }

// Output transmits a frame on a VCI. On a router this reaches the
// board; on a host, the encapsulation layer. Matching Table 1, the
// driver send path itself costs nothing: it "simply calls the next
// layer down without touching the data or the header". The frame is
// consumed whatever the outcome.
func (d *Driver) Output(vci atm.VCI, frame *mbuf.Chain) error {
	switch e := d.vc(vci); {
	case e.h == nil && e.lease.VCI != 0:
		frame.Release()
		return errShutVCI
	case d.board != nil:
		return d.board.send(vci, frame)
	case d.encap != nil:
		return d.encap(vci, frame)
	}
	frame.Release()
	return errNoBackend
}

// Input demultiplexes a received frame by VCI, charging the Table 1 Orc
// receive dispatch cost.
func (d *Driver) Input(vci atm.VCI, frame *mbuf.Chain) {
	d.Meter.Charge(cost.OrcDriver, cost.OrcRecvDispatch)
	switch e := d.vc(vci); {
	case e.h != nil:
		e.h(vci, frame)
		return
	case e.lease.VCI != 0:
		d.DiscardedShut++
	default:
		d.DiscardedNoHandler++
	}
	frame.Release()
}

// SetHandler installs the receive handler for a VCI under its latest
// grant, clearing any shut mark; a nil handler is Shut.
func (d *Driver) SetHandler(vci atm.VCI, h frameHandler) { d.set(vci, drvVC{h, d.Leases(vci)}) }

// Shut honours a VCI_SHUT: the VCI's latest grant loses its handler and
// SAR state and discards further data, until the VCI is granted again.
func (d *Driver) Shut(vci atm.VCI) { d.SetHandler(vci, nil) }

// ClearVC removes all state for l's VCI (orderly teardown, as opposed to
// Shut's discard mode). A superseded l, from a socket that outlived its
// circuit, makes it a counted no-op that spares the VCI's next circuit.
func (d *Driver) ClearVC(l atm.Lease) {
	if l != d.Leases(l.VCI) {
		d.StaleLeases++
		return
	}
	d.set(l.VCI, drvVC{})
}

// Stale lists the VCIs with a handler installed under a lease holds
// rejects, for the drain audit.
func (d *Driver) Stale(holds func(atm.Lease) bool) (out []atm.VCI) {
	for v, e := range d.vcs {
		if e.h != nil && !holds(e.lease) {
			out = append(out, atm.VCI(v))
		}
	}
	return out
}
