package xswitch

import (
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/qos"
	"xunet/internal/sim"
)

// Wall-clock benchmarks for the fabric substrate: cells switched per
// second of real time and circuit setup/teardown rate bound the scale
// of runnable scenarios.

// cellCount is a sink that only counts, so a benchmark times the fabric
// and not a growing slice of arrivals.
type cellCount struct{ n int }

func (c *cellCount) ReceiveCell(atm.Cell) { c.n++ }

func benchFabric(b *testing.B) (*sim.Engine, *Fabric, *Endpoint, *cellCount, *VC) {
	b.Helper()
	e := sim.New(1)
	f := NewFabric(e)
	swA, swB := Testbed(f)
	sink := &cellCount{}
	epA, err := f.Attach("a", nil, swA, TAXI())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Attach("b", sink, swB, TAXI()); err != nil {
		b.Fatal(err)
	}
	vc, err := f.SetupVC("a", "b", qos.BestEffortQoS)
	if err != nil {
		b.Fatal(err)
	}
	return e, f, epA, sink, vc
}

func BenchmarkCellSwitching(b *testing.B) {
	e, _, epA, sink, vc := benchFabric(b)
	c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 32-cell frames, and the last cell ends one too.
		c.PTI = 0
		if i%32 == 31 || i == b.N-1 {
			c.PTI = atm.PTIUserData1
		}
		epA.SendCell(c)
		if i%1024 == 1023 {
			// Advance virtual time enough to drain the burst through
			// the slowest hop (1024 cells ≈ 9.7 ms on the 45 Mb/s DS3),
			// keeping queues below their limits.
			e.RunFor(12 * time.Millisecond)
		}
	}
	e.Run()
	b.StopTimer()
	if sink.n != b.N {
		b.Fatalf("delivered %d of %d", sink.n, b.N)
	}
}

func BenchmarkVCSetupRelease(b *testing.B) {
	e := sim.New(1)
	f := NewFabric(e)
	swA, swB := Testbed(f)
	f.Attach("a", nil, swA, TAXI())
	f.Attach("b", nil, swB, TAXI())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc, err := f.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 100})
		if err != nil {
			b.Fatal(err)
		}
		vc.Release()
	}
}

func BenchmarkFrameAcrossTestbed(b *testing.B) {
	// One 1500-byte frame = 32 cells across the 3-hop path.
	e, _, epA, sink, vc := benchFabric(b)
	cells := make([]atm.Cell, 32)
	for i := range cells {
		cells[i].VCI = vc.SrcVCI
		if i == len(cells)-1 {
			cells[i].PTI = atm.PTIUserData1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			epA.SendCell(cells[j])
		}
		e.Run()
	}
	b.StopTimer()
	if sink.n != 32*b.N {
		b.Fatalf("delivered %d", sink.n)
	}
}

// BenchmarkFrameFastToSlowHop is the queue-building case the all-TAXI
// attachments above never reach: 30-cell frames on four interleaved VCs
// enter over TAXI 2.2× faster than the DS3 behind it drains, so the DS3's
// class queue is tens of cells deep whenever a cell arrives. It reports
// ns per cell-hop and engine events per frame (one delivery per cell per
// hop was the floor until cells were pulled through interior hops: now a
// frame costs its last cell's watch, armed early and re-armed once).
func BenchmarkFrameFastToSlowHop(b *testing.B) {
	const vcs, cellsPerFrame, hops = 4, 30, 3
	e, f, epA, sink, vc := benchFabric(b)
	var cells [vcs][cellsPerFrame]atm.Cell
	for v := range cells {
		if v > 0 {
			var err error
			if vc, err = f.SetupVC("a", "b", qos.BestEffortQoS); err != nil {
				b.Fatal(err)
			}
		}
		for i := range cells[v] {
			cells[v][i].VCI = vc.SrcVCI
		}
		cells[v][cellsPerFrame-1].PTI = atm.PTIUserData1
	}
	round := func() {
		for i := 0; i < cellsPerFrame; i++ {
			for v := range cells {
				epA.SendCell(cells[v][i])
			}
		}
		e.Run()
	}
	round() // size the rings
	ev0 := e.EventsExecuted()
	sink.n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += vcs {
		round()
	}
	b.StopTimer()
	frames := (b.N + vcs - 1) / vcs * vcs
	if sink.n != frames*cellsPerFrame {
		b.Fatalf("delivered %d of %d", sink.n, frames*cellsPerFrame)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames*cellsPerFrame*hops), "ns/cell-hop")
	b.ReportMetric(float64(e.EventsExecuted()-ev0)/float64(frames), "events/frame")
}
