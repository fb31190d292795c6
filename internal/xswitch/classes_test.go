package xswitch

import (
	"testing"

	"xunet/internal/atm"
	"xunet/internal/qos"
	"xunet/internal/sim"
)

// Per-class protection experiments for the ref [17]-style scheduler:
// under overload, reserved classes keep their cells while best effort
// absorbs the loss.

func TestClassProtectionUnderOverload(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	sw := f.mustAddSwitch("s")
	// A slow bottleneck trunk with small per-class queues.
	slow := LinkConfig{RateBps: 5_000_000, QueueCells: 64}
	epA, _ := f.Attach("a", nil, sw, TAXI())
	attach(t, f, "b", sw, slow, e)

	cbr, err := f.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	vbr, err := f.SetupVC("a", "b", qos.QoS{Class: qos.VBR, BandwidthKbs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	be, err := f.SetupVC("a", "b", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}

	// CBR offers traffic conformant to its 2 Mb/s reservation; VBR
	// slightly exceeds its effective share; best effort floods. The
	// aggregate far exceeds the 5 Mb/s bottleneck, so the weighted
	// round robin must choose — and a conformant reserved class must
	// not lose a cell.
	for round := 0; round < 400; round++ {
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: cbr.SrcVCI}}) // ≈2.1 Mb/s
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: vbr.SrcVCI}}) // ≈2.1 Mb/s
		for burst := 0; burst < 6; burst++ {
			epA.SendCell(atm.Cell{Header: atm.Header{VCI: be.SrcVCI}}) // ≈12.7 Mb/s
		}
		e.RunFor(200 * 1000) // 200 µs rounds
	}
	drain(f, e.Run)

	stats := f.classStats()
	if stats.LossRate(qos.CBR) != 0 {
		t.Fatalf("CBR lost cells under overload: %.3f", stats.LossRate(qos.CBR))
	}
	if stats.LossRate(qos.BestEffort) == 0 {
		t.Fatal("best effort lost nothing despite 10x overload")
	}
	// VBR sits between the two.
	if stats.LossRate(qos.VBR) > stats.LossRate(qos.BestEffort) {
		t.Fatalf("VBR (%.3f) lost more than best effort (%.3f)",
			stats.LossRate(qos.VBR), stats.LossRate(qos.BestEffort))
	}
	t.Logf("loss: cbr=%.3f vbr=%.3f be=%.3f",
		stats.LossRate(qos.CBR), stats.LossRate(qos.VBR), stats.LossRate(qos.BestEffort))
}

func TestClassStatsAccounting(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	swA, swB := Testbed(f)
	epA, _ := f.Attach("a", nil, swA, TAXI())
	attach(t, f, "b", swB, TAXI(), e)
	vc, _ := f.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 100})
	for i := 0; i < 10; i++ {
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}})
	}
	drain(f, e.Run)
	stats := f.classStats()
	// 10 cells × 3 trunks on the path, all CBR.
	if stats.Sent[qos.CBR] != 30 {
		t.Fatalf("CBR sent = %d, want 30", stats.Sent[qos.CBR])
	}
	if stats.Sent[qos.BestEffort] != 0 || stats.Sent[qos.VBR] != 0 {
		t.Fatalf("other classes saw traffic: %+v", stats)
	}
	sent, dropped := f.TrunkStats()
	if sent != 30 || dropped != 0 {
		t.Fatalf("TrunkStats = %d/%d", sent, dropped)
	}
	if stats.LossRate(qos.VBR) != 0 {
		t.Fatal("idle class loss rate not zero")
	}
}
