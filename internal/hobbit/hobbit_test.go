package hobbit

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/mbuf"
)

// loopTx loops transmitted cells straight back into a receiving board,
// optionally mangling the stream.
type loopTx struct {
	rx      *Board
	dropIdx int // drop the cell at this index (-1 none)
	n       int
	held    []atm.Cell // cells held back for reordering
	holdEOF bool
}

func (l *loopTx) SendCell(c atm.Cell) {
	idx := l.n
	l.n++
	if idx == l.dropIdx {
		return
	}
	l.rx.ReceiveCell(c)
}

func pay(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 13)
	}
	return p
}

// pair builds a sender driver+board looped to a receiver driver+board.
func pair(t *testing.T) (*Driver, *Driver, *loopTx) {
	t.Helper()
	rxMeter := cost.NewMeter()
	rxDrv := NewDriver(rxMeter)
	lt := &loopTx{dropIdx: -1}
	rxBoard := NewBoard(nil)
	rxDrv.AttachBoard(rxBoard)
	lt.rx = rxBoard
	txDrv := NewDriver(cost.NewMeter())
	txDrv.AttachBoard(NewBoard(lt))
	return txDrv, rxDrv, lt
}

func TestSendReceiveRoundTrip(t *testing.T) {
	tx, rx, _ := pair(t)
	var got []byte
	var gotVCI atm.VCI
	rx.SetHandler(77, func(vci atm.VCI, frame *mbuf.Chain) {
		gotVCI, got = vci, frame.Bytes()
	})
	if err := tx.Output(77, mbuf.FromBytes(pay(1500))); err != nil {
		t.Fatal(err)
	}
	if gotVCI != 77 || !bytes.Equal(got, pay(1500)) {
		t.Fatalf("vci=%v len=%d", gotVCI, len(got))
	}
	b := tx.Board()
	if b.FramesOut != 1 || b.CellsOut == 0 {
		t.Fatalf("tx counters frames=%d cells=%d", b.FramesOut, b.CellsOut)
	}
	rb := rx.Board()
	if rb.FramesIn != 1 || rb.CellsIn != b.CellsOut {
		t.Fatalf("rx counters frames=%d cells=%d", rb.FramesIn, rb.CellsIn)
	}
}

func TestEmptyFrame(t *testing.T) {
	tx, rx, _ := pair(t)
	var calls int
	var got []byte
	rx.SetHandler(1, func(_ atm.VCI, frame *mbuf.Chain) {
		calls++
		got = frame.Bytes()
	})
	if err := tx.Output(1, mbuf.FromBytes(nil)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(got) != 0 {
		t.Fatalf("calls=%d len=%d", calls, len(got))
	}
}

func TestDroppedCellDetected(t *testing.T) {
	tx, rx, lt := pair(t)
	lt.dropIdx = 1
	delivered := false
	rx.SetHandler(5, func(atm.VCI, *mbuf.Chain) { delivered = true })
	if err := tx.Output(5, mbuf.FromBytes(pay(500))); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("frame with missing cell delivered")
	}
	if rx.Board().SARErrors != 1 {
		t.Fatalf("SARErrors = %d", rx.Board().SARErrors)
	}
}

func TestLostFrameDetectedBySequence(t *testing.T) {
	tx, rx, lt := pair(t)
	var frames int
	rx.SetHandler(5, func(atm.VCI, *mbuf.Chain) { frames++ })
	// Frame 0 delivered, frame 1 entirely lost, frame 2 delivered.
	_ = tx.Output(5, mbuf.FromBytes(pay(48)))
	lt.dropIdx = lt.n // drop every cell of the next (single-cell) frame
	_ = tx.Output(5, mbuf.FromBytes(pay(10)))
	lt.dropIdx = -1
	_ = tx.Output(5, mbuf.FromBytes(pay(48)))
	if frames != 2 {
		t.Fatalf("frames = %d", frames)
	}
	if rx.Board().OOOFrames != 1 {
		t.Fatalf("OOOFrames = %d, want 1 (gap detected)", rx.Board().OOOFrames)
	}
}

// TestRefusedFrameKeepsSequence: a frame the board refuses (an SDU over
// 65 535 bytes) never leaves, so it must not take a sequence number —
// the far board would count the next good frame as out of order.
func TestRefusedFrameKeepsSequence(t *testing.T) {
	tx, rx, _ := pair(t)
	var frames int
	rx.SetHandler(5, func(_ atm.VCI, ch *mbuf.Chain) { frames++; ch.Release() })
	if err := tx.Output(5, mbuf.FromBytes(pay(48))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Output(5, mbuf.FromBytes(pay(70000))); err == nil {
		t.Fatal("a 70 000-byte SDU was accepted")
	}
	if err := tx.Output(5, mbuf.FromBytes(pay(48))); err != nil {
		t.Fatal(err)
	}
	if rb := rx.Board(); frames != 2 || rb.OOOFrames != 0 || tx.Board().FramesOut != 2 {
		t.Fatalf("delivered %d frames, OOOFrames = %d, FramesOut = %d; want 2, 0, 2", frames, rb.OOOFrames, tx.Board().FramesOut)
	}
}

func TestNoHandlerDiscards(t *testing.T) {
	tx, rx, _ := pair(t)
	_ = tx.Output(9, mbuf.FromBytes(pay(10)))
	if rx.DiscardedNoHandler != 1 {
		t.Fatalf("DiscardedNoHandler = %d", rx.DiscardedNoHandler)
	}
}

func TestShutDiscardsAndOutputs(t *testing.T) {
	tx, rx, _ := pair(t)
	delivered := 0
	rx.SetHandler(4, func(atm.VCI, *mbuf.Chain) { delivered++ })
	_ = tx.Output(4, mbuf.FromBytes(pay(10)))
	rx.Shut(4)
	_ = tx.Output(4, mbuf.FromBytes(pay(10)))
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if rx.DiscardedShut != 1 {
		t.Fatalf("DiscardedShut = %d", rx.DiscardedShut)
	}
	// Output on a locally shut VCI is refused.
	tx.Shut(4)
	if err := tx.Output(4, mbuf.FromBytes(pay(1))); !errors.Is(err, errShutVCI) {
		t.Fatalf("err = %v", err)
	}
	// SetHandler reopens the VCI.
	rx.SetHandler(4, func(atm.VCI, *mbuf.Chain) { delivered++ })
	tx.ClearVC(tx.Leases(4))
	// Sequence state was reset on both sides by Shut/ClearVC; frame
	// delivery resumes.
	if err := tx.Output(4, mbuf.FromBytes(pay(10))); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered after reopen = %d", delivered)
	}
}

func TestHostDriverUsesEncap(t *testing.T) {
	d := NewDriver(cost.NewMeter())
	var gotVCI atm.VCI
	var got []byte
	d.SetEncap(func(vci atm.VCI, frame *mbuf.Chain) error {
		gotVCI, got = vci, frame.Bytes()
		return nil
	})
	if err := d.Output(3, mbuf.FromBytes(pay(100))); err != nil {
		t.Fatal(err)
	}
	if gotVCI != 3 || !bytes.Equal(got, pay(100)) {
		t.Fatal("encap not invoked with frame")
	}
	if d.Board() != nil {
		t.Fatal("host driver has a board")
	}
}

func TestNoBackend(t *testing.T) {
	d := NewDriver(nil)
	if err := d.Output(1, mbuf.FromBytes(nil)); !errors.Is(err, errNoBackend) {
		t.Fatalf("err = %v", err)
	}
}

func TestInputChargesOrcCost(t *testing.T) {
	m := cost.NewMeter()
	d := NewDriver(m)
	d.SetHandler(1, func(atm.VCI, *mbuf.Chain) {})
	d.Input(1, mbuf.FromBytes(nil))
	if got := m.Snapshot()[cost.OrcDriver]; got != cost.OrcRecvDispatch {
		t.Fatalf("Orc cost = %d, want %d", got, cost.OrcRecvDispatch)
	}
}

func TestSendSideCostsNothing(t *testing.T) {
	tx, rx, _ := pair(t)
	rx.SetHandler(2, func(atm.VCI, *mbuf.Chain) {})
	before := tx.Meter.Snapshot()
	_ = tx.Output(2, mbuf.FromBytes(pay(5000)))
	d := tx.Meter.Snapshot().Sub(before)
	if d.Total() != 0 {
		t.Fatalf("send path charged %v; Table 1 says the driver and board cost 0", d)
	}
}

func TestHandlerLookup(t *testing.T) {
	d := NewDriver(nil)
	if d.Handler(7) != nil {
		t.Fatal("phantom handler")
	}
	d.SetHandler(7, func(atm.VCI, *mbuf.Chain) {})
	if d.Handler(7) == nil {
		t.Fatal("handler not installed")
	}
	d.ClearVC(d.Leases(7))
	if d.Handler(7) != nil {
		t.Fatal("handler survived ClearVC")
	}
}

func TestInterleavedVCs(t *testing.T) {
	// Cells from two VCs interleave on the wire; reassembly keeps them
	// apart.
	rxDrv := NewDriver(cost.NewMeter())
	rxBoard := NewBoard(nil)
	rxDrv.AttachBoard(rxBoard)
	got := map[atm.VCI][]byte{}
	for _, v := range []atm.VCI{10, 11} {
		v := v
		rxDrv.SetHandler(v, func(vci atm.VCI, frame *mbuf.Chain) { got[vci] = frame.Bytes() })
	}
	// Build two frames by hand and interleave their cells.
	mk := func(vci atm.VCI, n int) []atm.Cell {
		d := NewDriver(cost.NewMeter())
		var cells []atm.Cell
		d.AttachBoard(NewBoard(cellFn(func(c atm.Cell) { cells = append(cells, c) })))
		_ = d.Output(vci, mbuf.FromBytes(pay(n)))
		return cells
	}
	a, b := mk(10, 300), mk(11, 300)
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			rxBoard.ReceiveCell(a[i])
		}
		if i < len(b) {
			rxBoard.ReceiveCell(b[i])
		}
	}
	if !bytes.Equal(got[10], pay(300)) || !bytes.Equal(got[11], pay(300)) {
		t.Fatal("interleaved VC frames corrupted")
	}
}

type cellFn func(c atm.Cell)

func (f cellFn) SendCell(c atm.Cell) { f(c) }

// Property: any payload round-trips through board SAR for any VCI.
func TestQuickBoardRoundTrip(t *testing.T) {
	f := func(data []byte, vci uint16) bool {
		if len(data) > 60000 {
			data = data[:60000]
		}
		tx := NewDriver(nil)
		rx := NewDriver(nil)
		rxb := NewBoard(nil)
		rx.AttachBoard(rxb)
		tx.AttachBoard(NewBoard(cellFn(rxb.ReceiveCell)))
		var got []byte
		ok := false
		rx.SetHandler(atm.VCI(vci), func(_ atm.VCI, frame *mbuf.Chain) {
			got = frame.Bytes()
			ok = true
		})
		if err := tx.Output(atm.VCI(vci), mbuf.FromBytes(data)); err != nil {
			return false
		}
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBoardReusesSARBuffers is the board's half of the reused-buffer
// contract: every frame of a VC is reassembled in the buffer the VC's
// last frame used — whether that one was delivered, failed its CRC or
// was cut short by resetVC — and the chain a handler receives is its own
// copy, untouched by the frames that follow.
func TestBoardReusesSARBuffers(t *testing.T) {
	tx, rx, lt := pair(t)
	var kept []*mbuf.Chain
	rx.SetHandler(5, func(_ atm.VCI, frame *mbuf.Chain) { kept = append(kept, frame) })
	send := func(n int) {
		t.Helper()
		if err := tx.Output(5, mbuf.FromBytes(pay(n))); err != nil {
			t.Fatal(err)
		}
	}
	send(1400)
	rxb := rx.Board()
	buf := &rxb.vcs[5].reasm

	lt.dropIdx = lt.n + 2 // a cell lost inside the next frame: CRC failure
	send(1400)
	lt.dropIdx = -1
	if rxb.SARErrors != 1 || len(kept) != 1 {
		t.Fatalf("SARErrors = %d, delivered %d", rxb.SARErrors, len(kept))
	}
	send(900) // after the failed frame

	// resetVC lands mid-frame: the first cells of a frame arrive, the VC
	// is torn down, and the VCI's next circuit starts from sequence 0.
	cells := 0
	full := lt.rx
	lt.rx = nil
	tx.Board().tx = cellFn(func(c atm.Cell) {
		if cells++; cells <= 4 {
			full.ReceiveCell(c)
		}
	})
	send(1400)
	if buf.Pending() != 4*atm.PayloadSize {
		t.Fatalf("pending = %d bytes mid-frame", buf.Pending())
	}
	rxb.resetVC(5)
	tx.Board().resetVC(5)
	if buf.Pending() != 0 || &rxb.vcs[5].reasm != buf {
		t.Fatal("resetVC must clear the VC's reassembler and keep it")
	}
	lt.rx = full
	tx.Board().tx = lt
	send(1300)
	send(48)

	want := []int{1400, 900, 1300, 48}
	if len(kept) != len(want) || rxb.SARErrors != 1 || rxb.OOOFrames != 1 {
		// The one sequence gap is the frame lost to the CRC failure.
		t.Fatalf("delivered %d frames, SARErrors = %d, OOOFrames = %d", len(kept), rxb.SARErrors, rxb.OOOFrames)
	}
	for i, n := range want {
		if !bytes.Equal(kept[i].Bytes(), pay(n)) {
			t.Fatalf("frame %d (%d bytes) was overwritten by a later frame's reassembly", i, n)
		}
	}
}

// TestBoardVCITableBounds: VCIs beyond the board's table, on either
// path, grow it; resetVC of a VCI the board never saw is a no-op.
func TestBoardVCITableBounds(t *testing.T) {
	tx, rx, _ := pair(t)
	got := map[atm.VCI]int{}
	for _, vci := range []atm.VCI{40, 4000, 33} {
		rx.SetHandler(vci, func(v atm.VCI, frame *mbuf.Chain) { got[v] += frame.Len() })
	}
	rx.Board().resetVC(4000) // table still empty
	for _, vci := range []atm.VCI{40, 4000, 33, 4000} {
		if err := tx.Output(vci, mbuf.FromBytes(pay(100))); err != nil {
			t.Fatal(err)
		}
	}
	rx.Board().resetVC(4001) // inside the table, never used
	rx.Board().resetVC(65535)
	if got[40] != 100 || got[4000] != 200 || got[33] != 100 || rx.Board().OOOFrames != 0 {
		t.Fatalf("delivered %v, OOOFrames = %d", got, rx.Board().OOOFrames)
	}
}

// TestDriverVCITableBounds walks the driver's VCI-indexed table past its
// end: a VCI never set has no handler and no shut mark, reading it does
// not grow the table, clearing or shutting one past the end works, and
// the shut mark still lasts until SetHandler or ClearVC.
func TestDriverVCITableBounds(t *testing.T) {
	tx, rx, _ := pair(t)
	var got []atm.VCI
	rx.SetHandler(40, func(v atm.VCI, frame *mbuf.Chain) { got = append(got, v); frame.Release() })
	for _, vci := range []atm.VCI{41, 4000, 65535} {
		if rx.Handler(vci) != nil {
			t.Fatalf("VCI %d past the end has a handler", vci)
		}
		if err := tx.Output(vci, mbuf.FromBytes(pay(10))); err != nil {
			t.Fatal(err)
		}
	}
	if rx.DiscardedNoHandler != 3 || len(rx.vcs) != 41 {
		t.Fatalf("DiscardedNoHandler = %d, table %d long", rx.DiscardedNoHandler, len(rx.vcs))
	}
	rx.ClearVC(rx.Leases(5000)) // past the end: grows the table, clears nothing
	rx.Shut(65535)
	if err := rx.Output(65535, mbuf.FromBytes(pay(10))); !errors.Is(err, errShutVCI) {
		t.Fatalf("Output on a shut VCI past the old end: %v", err)
	}
	if err := tx.Output(65535, mbuf.FromBytes(pay(10))); err != nil {
		t.Fatal(err)
	}
	if rx.DiscardedShut != 1 {
		t.Fatalf("DiscardedShut = %d", rx.DiscardedShut)
	}
	rx.SetHandler(65535, func(v atm.VCI, frame *mbuf.Chain) { got = append(got, v); frame.Release() })
	for _, vci := range []atm.VCI{65535, 40} {
		if err := tx.Output(vci, mbuf.FromBytes(pay(10))); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0] != 65535 || got[1] != 40 {
		t.Fatalf("delivered on %v", got)
	}
}

// released reports whether c was released: poisoned under the race
// detector, emptied without it (c is never empty when sent).
func released(c *mbuf.Chain) (yes bool) {
	defer func() {
		if recover() != nil {
			yes = true
		}
	}()
	return c.Head() == nil && c.Len() == 0
}

// TestLeaseSupersedesEntry: an entry lives as long as the grant it was
// made under. A shut mark stops the circuit it shut and no later one, and
// a teardown naming a superseded grant is a counted no-op that leaves the
// VCI's next circuit alone.
func TestLeaseSupersedesEntry(t *testing.T) {
	tx, rx, _ := pair(t)
	alloc := atm.NewVCIAlloc(32)
	tx.Leases, rx.Leases = alloc.Lease, alloc.Lease
	old := alloc.Alloc()
	delivered := 0
	rx.SetHandler(old.VCI, func(atm.VCI, *mbuf.Chain) { delivered++ })
	tx.Shut(old.VCI)
	if err := tx.Output(old.VCI, mbuf.FromBytes(pay(10))); !errors.Is(err, errShutVCI) {
		t.Fatalf("Output on the shut grant: %v", err)
	}
	alloc.Free(old.VCI)
	if l := alloc.Alloc(); l.VCI != old.VCI || l.Gen != old.Gen+1 {
		t.Fatalf("re-grant = %+v, want %v generation %d", l, old.VCI, old.Gen+1)
	}
	if err := tx.Output(old.VCI, mbuf.FromBytes(pay(10))); err != nil {
		t.Fatalf("Output on the re-granted VCI: %v", err)
	}
	if delivered != 0 || rx.DiscardedNoHandler != 1 || rx.Handler(old.VCI) != nil {
		t.Fatalf("the old grant's handler ran: delivered %d, no-handler %d", delivered, rx.DiscardedNoHandler)
	}
	rx.SetHandler(old.VCI, func(atm.VCI, *mbuf.Chain) { delivered++ })
	rx.ClearVC(old)
	if err := tx.Output(old.VCI, mbuf.FromBytes(pay(10))); err != nil || delivered != 1 || rx.StaleLeases != 1 {
		t.Fatalf("after a stale ClearVC: err %v, delivered %d, stale %d", err, delivered, rx.StaleLeases)
	}
}

// Output consumes its frame on every path: a refusal releases it, so
// the caller — which no longer owns it — leaks nothing.
func TestOutputConsumesRefusedFrames(t *testing.T) {
	tx, _, _ := pair(t)
	tx.Shut(4)
	shut := mbuf.FromBytes(pay(10))
	if err := tx.Output(4, shut); !errors.Is(err, errShutVCI) || !released(shut) {
		t.Fatalf("shut VCI: err %v, released %v", err, released(shut))
	}
	orphan := mbuf.FromBytes(pay(10))
	if err := NewDriver(nil).Output(1, orphan); !errors.Is(err, errNoBackend) || !released(orphan) {
		t.Fatalf("no backend: err %v, released %v", err, released(orphan))
	}
}
