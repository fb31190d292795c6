package xswitch

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"xunet/internal/atm"
	"xunet/internal/qos"
	"xunet/internal/sim"
)

// collector is a CellSink recording arrivals, stamped with the clock of
// its endpoint, ep (set once attached) — except a frame's last cell,
// stamped with the engine's: a receiver acts on that one, so it must be
// handed over at its own instant, not merely stamped with it.
type collector struct {
	ep    *Endpoint
	cells []atm.Cell
	times []time.Duration
}

func (c *collector) ReceiveCell(cell atm.Cell) {
	at := c.ep.Now()
	if cell.EndOfFrame() {
		at = c.ep.Eng().Now()
	}
	c.cells = append(c.cells, cell)
	c.times = append(c.times, at)
}

// testbed builds the paper's 3-hop/2-switch path with two endpoints.
func testbed(t *testing.T) (*sim.Engine, *Fabric, *Endpoint, *Endpoint, *collector, *collector) {
	t.Helper()
	e := sim.New(1)
	f := NewFabric(e)
	swA, swB := Testbed(f)
	epA, ca := attach(t, f, "mh.rt", swA, TAXI(), e)
	epB, cb := attach(t, f, "ucb.rt", swB, TAXI(), e)
	return e, f, epA, epB, ca, cb
}

func TestSetupVCThreeHops(t *testing.T) {
	_, f, _, _, _, _ := testbed(t)
	vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Hops() != 3 {
		t.Fatalf("hops = %d, want 3 (paper's testbed)", vc.Hops())
	}
	if vc.SetupCost() != 2*perHopSetupCost {
		t.Fatalf("setup cost = %v", vc.SetupCost())
	}
	if f.ActiveVCs() != 1 {
		t.Fatalf("active VCs = %d", f.ActiveVCs())
	}
	vc.Release()
	if f.ActiveVCs() != 0 {
		t.Fatalf("active VCs after release = %d", f.ActiveVCs())
	}
	vc.Release() // idempotent
}

func TestCellDeliveryAndTranslation(t *testing.T) {
	e, f, epA, _, _, cb := testbed(t)
	vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI, PTI: atm.PTIUserData1}}
	c.Payload[0] = 0xAB
	epA.SendCell(c)
	e.Run()
	if len(cb.cells) != 1 {
		t.Fatalf("delivered %d cells", len(cb.cells))
	}
	got := cb.cells[0]
	if got.VCI != vc.DstVCI {
		t.Fatalf("arrived on %v, want %v", got.VCI, vc.DstVCI)
	}
	if got.Payload[0] != 0xAB || !got.EndOfFrame() {
		t.Fatal("payload or PTI corrupted in transit")
	}
}

func TestUnknownVCIDropped(t *testing.T) {
	e, f, epA, _, _, cb := testbed(t)
	epA.SendCell(atm.Cell{Header: atm.Header{VCI: 999}})
	drain(f, e.Run)
	if len(cb.cells) != 0 {
		t.Fatal("cell on unprogrammed VCI delivered")
	}
	var unroutable uint64
	for _, sw := range f.switches {
		unroutable += sw.Unroutable
	}
	if unroutable != 1 {
		t.Fatalf("unroutable = %d", unroutable)
	}
}

func TestCellOrderPreserved(t *testing.T) {
	e, f, epA, _, _, cb := testbed(t)
	vc, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	const n = 100
	for i := 0; i < n; i++ {
		c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}}
		c.Payload[0] = byte(i)
		epA.SendCell(c)
	}
	drain(f, e.Run)
	if len(cb.cells) != n {
		t.Fatalf("delivered %d of %d", len(cb.cells), n)
	}
	for i, c := range cb.cells {
		if c.Payload[0] != byte(i) {
			t.Fatalf("cell %d out of order", i)
		}
	}
}

func TestTwoVCsGetDistinctVCIs(t *testing.T) {
	_, f, _, _, _, _ := testbed(t)
	vc1, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	vc2, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if vc1.SrcVCI == vc2.SrcVCI {
		t.Fatal("source VCIs collide")
	}
	if vc1.DstVCI == vc2.DstVCI {
		t.Fatal("destination VCIs collide")
	}
}

func TestDuplexVCIsDoNotCollideAtEndpoint(t *testing.T) {
	// A machine's PCB table is indexed by VCI alone, so a VC it sends
	// on and a VC it receives on must never share a number.
	_, f, _, _, _, _ := testbed(t)
	seen := map[atm.VCI]bool{}
	for i := 0; i < 10; i++ {
		ab, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := f.SetupVC("ucb.rt", "mh.rt", qos.BestEffortQoS)
		if err != nil {
			t.Fatal(err)
		}
		// At mh.rt: sends on ab.SrcVCI, receives on ba.DstVCI.
		for _, v := range []atm.VCI{ab.SrcVCI, ba.DstVCI} {
			if seen[v] {
				t.Fatalf("VCI %v reused at mh.rt", v)
			}
			seen[v] = true
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	_, f, _, _, _, _ := testbed(t)
	// DS3 trunk is 45 Mb/s = 45000 kb/s. Fill it with CBR.
	var vcs []*VC
	for i := 0; i < 4; i++ {
		vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.CBR, BandwidthKbs: 10000})
		if err != nil {
			t.Fatalf("vc %d: %v", i, err)
		}
		vcs = append(vcs, vc)
	}
	// A fifth 10 Mb/s CBR circuit exceeds 45 Mb/s.
	if _, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.CBR, BandwidthKbs: 10000}); !errors.Is(err, qos.ErrAdmission) {
		t.Fatalf("admission err = %v", err)
	}
	// Best effort still admitted.
	if _, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS); err != nil {
		t.Fatalf("best effort rejected: %v", err)
	}
	// Releasing one reservation frees capacity.
	vcs[0].Release()
	if _, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.CBR, BandwidthKbs: 10000}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestFailedSetupLeavesNoResidue(t *testing.T) {
	_, f, _, _, _, _ := testbed(t)
	big := qos.QoS{Class: qos.CBR, BandwidthKbs: 40000}
	vc1, err := f.SetupVC("mh.rt", "ucb.rt", big)
	if err != nil {
		t.Fatal(err)
	}
	// Second big circuit fails at the DS3; the TAXI hops already
	// admitted must be unwound.
	if _, err := f.SetupVC("mh.rt", "ucb.rt", big); err == nil {
		t.Fatal("oversubscription admitted")
	}
	vc1.Release()
	// Full capacity must now be available again on every hop.
	vc2, err := f.SetupVC("mh.rt", "ucb.rt", big)
	if err != nil {
		t.Fatalf("resetup failed, leaked bookings: %v", err)
	}
	vc2.Release()
}

func TestNoPath(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	swA := f.mustAddSwitch("a")
	swB := f.mustAddSwitch("b") // not connected
	f.Attach("x", nil, swA, TAXI())
	f.Attach("y", nil, swB, TAXI())
	if _, err := f.SetupVC("x", "y", qos.BestEffortQoS); !errors.Is(err, errNoPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownEndpoint(t *testing.T) {
	_, f, _, _, _, _ := testbed(t)
	if _, err := f.SetupVC("mh.rt", "nowhere.rt", qos.BestEffortQoS); !errors.Is(err, errNotRunning) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.SetupVC("nowhere.rt", "mh.rt", qos.BestEffortQoS); !errors.Is(err, errNotRunning) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateNames(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	f.mustAddSwitch("a")
	if _, err := f.AddSwitch("a"); !errors.Is(err, errDupName) {
		t.Fatalf("err = %v", err)
	}
	sw := f.mustAddSwitch("b")
	f.Attach("ep", nil, sw, TAXI())
	if _, err := f.Attach("ep", nil, sw, TAXI()); !errors.Is(err, errDupName) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueueOverflowDropsCells(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	sw := f.mustAddSwitch("s")
	// Tiny queue and a slow trunk to force overflow.
	slow := LinkConfig{RateBps: 1_000_000, QueueCells: 4}
	epA, _ := f.Attach("a", nil, sw, TAXI())
	_, sink := attach(t, f, "b", sw, slow, e)
	vc, err := f.SetupVC("a", "b", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}})
	}
	drain(f, e.Run)
	sent, dropped := f.TrunkStats()
	if dropped == 0 {
		t.Fatal("no drops despite overflow")
	}
	if len(sink.cells) == 0 || len(sink.cells) >= 100 {
		t.Fatalf("delivered %d cells", len(sink.cells))
	}
	if sent == 0 {
		t.Fatal("no sent cells counted")
	}
}

func TestWRRFavorsCBRUnderCongestion(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	sw := f.mustAddSwitch("s")
	slow := LinkConfig{RateBps: 2_000_000, QueueCells: 2000}
	epA, _ := f.Attach("a", nil, sw, TAXI())
	_, sink := attach(t, f, "b", sw, slow, e)
	cbr, err := f.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	be, err := f.SetupVC("a", "b", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	// Offer both classes an equal burst; watch who finishes first.
	const n = 400
	for i := 0; i < n; i++ {
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: be.SrcVCI}})
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: cbr.SrcVCI}})
	}
	drain(f, e.Run)
	if len(sink.cells) != 2*n {
		t.Fatalf("delivered %d of %d", len(sink.cells), 2*n)
	}
	// Completion time of the last CBR cell must beat the last BE cell.
	var lastCBR, lastBE time.Duration
	for i, c := range sink.cells {
		if c.VCI == cbr.DstVCI {
			lastCBR = sink.times[i]
		} else {
			lastBE = sink.times[i]
		}
	}
	if lastCBR >= lastBE {
		t.Fatalf("CBR finished at %v, BE at %v: scheduler not prioritizing", lastCBR, lastBE)
	}
}

func TestXunetTopology(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	sw := Xunet(f)
	if len(sw) != 5 {
		t.Fatalf("sites = %d", len(sw))
	}
	// Attach a router at every site and verify full reachability.
	for s, swi := range sw {
		if _, err := f.Attach(atm.Addr(SiteRouterAddr(s)), nil, swi, TAXI()); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range XunetSites() {
		for _, b := range XunetSites() {
			if a == b {
				continue
			}
			vc, err := f.SetupVC(atm.Addr(SiteRouterAddr(a)), atm.Addr(SiteRouterAddr(b)), qos.BestEffortQoS)
			if err != nil {
				t.Fatalf("%s -> %s: %v", a, b, err)
			}
			vc.Release()
		}
	}
}

func TestCrossCountryDelayDominatesPropagation(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	sw := Xunet(f)
	fA, _ := f.Attach("mh.rt", nil, sw[MurrayHill], TAXI())
	_, sinkB := attach(t, f, "ucb.rt", sw[Berkeley], TAXI(), e)
	vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	fA.SendCell(atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}})
	drain(f, e.Run)
	if len(sinkB.cells) != 1 {
		t.Fatal("cross-country cell lost")
	}
	// MH -> Illinois (6ms) -> Berkeley (9ms) plus attachment delays.
	if sinkB.times[0] < 15*time.Millisecond {
		t.Fatalf("arrival %v, want >= 15ms of propagation", sinkB.times[0])
	}
}

// Property: setup/release of any interleaving of circuits conserves VCI
// space and admission bookings exactly.
func TestQuickSetupReleaseConservation(t *testing.T) {
	f2 := func(ops []bool) bool {
		e := sim.New(7)
		fab := NewFabric(e)
		swA, swB := Testbed(fab)
		fab.Attach("a", nil, swA, TAXI())
		fab.Attach("b", nil, swB, TAXI())
		var open []*VC
		for _, setup := range ops {
			if setup {
				vc, err := fab.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 5000})
				if err == nil {
					open = append(open, vc)
				}
			} else if len(open) > 0 {
				open[0].Release()
				open = open[1:]
			}
		}
		for _, vc := range open {
			vc.Release()
		}
		if fab.ActiveVCs() != 0 {
			return false
		}
		// Everything released: a full-rate circuit must fit again.
		vc, err := fab.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 45000})
		if err != nil {
			return false
		}
		vc.Release()
		return true
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestVCITableBounds walks the VCI-indexed tables' edges: a VCI past the
// end of a table, one inside it that was never set, and one that was
// released and handed out again must read as no route and best effort,
// then as the new circuit's entry.
func TestVCITableBounds(t *testing.T) {
	e, f, epA, _, _, cb := testbed(t)
	unroutable := func() (n uint64) {
		for _, sw := range f.switches {
			n += sw.Unroutable
		}
		return n
	}
	// Nothing set up yet: every table is empty.
	epA.SendCell(atm.Cell{Header: atm.Header{VCI: 40}})
	drain(f, e.Run)
	if got := unroutable(); got != 1 {
		t.Fatalf("empty table: unroutable = %d, want 1", got)
	}
	cbr, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.CBR, BandwidthKbs: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, vci := range []atm.VCI{cbr.SrcVCI - 1, cbr.SrcVCI + 1, atm.MaxVCI, 65535} {
		epA.SendCell(atm.Cell{Header: atm.Header{VCI: vci}})
	}
	drain(f, e.Run)
	if got := unroutable(); got != 5 {
		t.Fatalf("unset and out-of-range VCIs: unroutable = %d, want 5", got)
	}
	if s := f.classStats(); s.Sent[qos.BestEffort] != 5 || s.Sent[qos.CBR] != 0 {
		t.Fatalf("unknown VCIs must ride best effort: %+v", s)
	}
	old := cbr.SrcVCI
	epA.SendCell(atm.Cell{Header: atm.Header{VCI: old}})
	cbr.Release()
	drain(f, e.Run) // the entry went while the cell was on the first hop
	if got := unroutable(); got != 6 || len(cb.cells) != 0 {
		t.Fatalf("released VCI: unroutable = %d (want 6), delivered %d", got, len(cb.cells))
	}
	if s := f.classStats(); s.Sent[qos.CBR] != 1 {
		t.Fatalf("cell sent before release must count as CBR: %+v", s)
	}
	// The allocator hands the freed VCI out again; the new circuit is VBR.
	vbr, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.VBR, BandwidthKbs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if vbr.SrcVCI != old {
		t.Fatalf("VCI %d not reused: got %d", old, vbr.SrcVCI)
	}
	epA.SendCell(atm.Cell{Header: atm.Header{VCI: old}})
	drain(f, e.Run)
	if len(cb.cells) != 1 || cb.cells[0].VCI != vbr.DstVCI {
		t.Fatalf("reused VCI: delivered %d cells", len(cb.cells))
	}
	if s := f.classStats(); s.Sent[qos.VBR] != 3 || s.Sent[qos.CBR] != 1 {
		t.Fatalf("reused VCI must take the new circuit's class: %+v", s)
	}
}

// TestTrunkCountersAreMonotoneMidBurst reads the counters from inside a
// burst: they count the cells whose pick times have passed — never one
// planned ahead — so they only grow, sent plus queued is everything
// accepted, and the per-tick series needs no rollback.
func TestTrunkCountersAreMonotoneMidBurst(t *testing.T) {
	e, f, epA, _, _, _ := testbed(t)
	vc, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	const burst = 40
	e.Schedule(0, func() {
		for i := 0; i < burst; i++ {
			epA.SendCell(atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}})
		}
	})
	up := epA.uplink
	var last uint64
	for k := 1; k <= 60; k++ {
		at := time.Duration(k)*up.ser - up.ser/3 // between picks k-1 and k
		e.Schedule(at, func() {
			up.settle()
			want := uint64(burst)
			if int(at/up.ser)+1 < burst {
				want = uint64(at/up.ser) + 1
			}
			if up.Sent != want || up.Sent < last || int(up.Sent)+up.queued != burst {
				t.Errorf("at %v: Sent=%d (want %d, was %d), queued=%d", at, up.Sent, want, last, up.queued)
			}
			last = up.Sent
		})
	}
	drain(f, e.Run)
	if sent, _ := f.TrunkStats(); sent != 3*burst {
		t.Fatalf("TrunkStats sent = %d, want %d", sent, 3*burst)
	}
}

// TestInteriorTrunkCycleAllocs: once the rings and the watch pool have
// their size, a frame's send/commit/deliver cycle over three interior
// trunks, watch event included, allocates nothing.
func TestInteriorTrunkCycleAllocs(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	swA, swB := Testbed(f)
	sink := &cellCount{}
	epA, _ := f.Attach("a", nil, swA, TAXI())
	_, _ = f.Attach("b", sink, swB, TAXI())
	vc, err := f.SetupVC("a", "b", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}}
	got := testing.AllocsPerRun(20, func() {
		for i := 0; i < 30; i++ {
			c.PTI = 0
			if i == 29 {
				c.PTI = atm.PTIUserData1
			}
			epA.SendCell(c)
		}
		e.Run()
	})
	if got != 0 || sink.n != 21*30 {
		t.Fatalf("%.0f allocs per 30-cell frame (want 0), %d cells delivered", got, sink.n)
	}
}

// TestPathCacheFollowsTopology: a setup reuses the path the first one
// found for its endpoint pair, until a switch, an endpoint or a trunk is
// added; then the next setup searches again, and a new trunk that makes
// a shorter path is taken.
func TestPathCacheFollowsTopology(t *testing.T) {
	e := sim.New(1)
	f := NewFabric(e)
	swA, swB, swC := f.mustAddSwitch("sw-A"), f.mustAddSwitch("sw-B"), f.mustAddSwitch("sw-C")
	f.ConnectSwitches(swA, swC, DS3(time.Millisecond))
	f.ConnectSwitches(swC, swB, DS3(time.Millisecond))
	epA, _ := attach(t, f, "mh.rt", swA, TAXI(), e)
	attach(t, f, "ucb.rt", swB, TAXI(), e)
	hops := func() int {
		t.Helper()
		vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
		if err != nil {
			t.Fatal(err)
		}
		n := vc.Hops()
		vc.Release()
		if epA.pathsAt != f.topo || epA.paths[1] == nil {
			t.Fatal("the setup left no path held for the pair")
		}
		return n
	}
	if n := hops(); n != 4 {
		t.Fatalf("%d hops via sw-C, want 4", n)
	}
	cached := &epA.paths[1][0]
	if hops(); cached != &epA.paths[1][0] {
		t.Fatal("a second setup searched again on an unchanged topology")
	}
	for _, change := range []struct {
		name string
		do   func()
	}{
		{"AddSwitch", func() { f.mustAddSwitch("sw-D") }},
		{"Attach", func() { attach(t, f, "uiuc.rt", swC, TAXI(), e) }},
		{"a trunk", func() { f.ConnectSwitches(swA, swB, DS3(time.Millisecond)) }},
	} {
		hops()
		change.do()
		if epA.pathsAt == f.topo {
			t.Fatalf("%s left the held paths current", change.name)
		}
	}
	if n := hops(); n != 3 {
		t.Fatalf("%d hops after the sw-A–sw-B trunk, want 3", n)
	}
}
