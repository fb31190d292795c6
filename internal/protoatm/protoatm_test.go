package protoatm_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/cost"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/protoatm"
	"xunet/internal/qos"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

// rig builds the full §7.4 picture:
//
//	hostA --FDDI-- routerA ==ATM testbed== routerB --FDDI-- hostB
type rig struct {
	e            *sim.Engine
	net          *memnet.Network
	fab          *xswitch.Fabric
	hostA, hostB *core.Stack
	ra, rb       *core.Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New(1)
	cm := sim.DefaultCostModel()
	fab := xswitch.NewFabric(e)
	swA, swB := xswitch.Testbed(fab)
	n := memnet.New(e)
	ipHA := n.MustAddNode("hostA", memnet.IP4(10, 0, 0, 10))
	ipRA := n.MustAddNode("mh.rt", memnet.IP4(10, 0, 0, 1))
	ipRB := n.MustAddNode("ucb.rt", memnet.IP4(10, 0, 1, 1))
	ipHB := n.MustAddNode("hostB", memnet.IP4(10, 0, 1, 10))
	n.Connect(ipHA, ipRA, memnet.FDDI())
	n.Connect(ipHB, ipRB, memnet.FDDI())
	ipHA.SetDefaultRoute(ipRA)
	ipHB.SetDefaultRoute(ipRB)
	ipRA.AddRoute(ipHA.Addr, ipHA)
	ipRB.AddRoute(ipHB.Addr, ipHB)

	ra, err := core.NewRouter(e, cm, core.RouterConfig{Name: "mh.rt", Addr: "mh.rt", IP: ipRA, Fabric: fab, Switch: swA})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.NewRouter(e, cm, core.RouterConfig{Name: "ucb.rt", Addr: "ucb.rt", IP: ipRB, Fabric: fab, Switch: swB})
	if err != nil {
		t.Fatal(err)
	}
	hostA := core.NewHost(e, cm, core.HostConfig{Name: "hostA", Addr: "mh.hostA", IP: ipHA, RouterIP: ipRA.Addr})
	hostB := core.NewHost(e, cm, core.HostConfig{Name: "hostB", Addr: "ucb.hostB", IP: ipHB, RouterIP: ipRB.Addr})
	return &rig{e: e, net: n, fab: fab, hostA: hostA, hostB: hostB, ra: ra, rb: rb}
}

// provision sets up a VC from routerA to routerB and binds the remote
// end to hostB (the VCI_BIND that anand server issues).
func (r *rig) provision(t *testing.T) *xswitch.VC {
	t.Helper()
	vc, err := r.fab.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	r.rb.ATM.VCIBind(vc.DstVCI, r.hostB.M.IP.Addr)
	return vc
}

func TestHostToHostAcrossATM(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	var got []byte
	r.hostB.Spawn("server", func(p *kern.Proc) {
		s, _ := r.hostB.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		got, _ = s.Recv()
	})
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send([]byte("ATM everywhere"))
	})
	r.e.Run()
	if string(got) != "ATM everywhere" {
		t.Fatalf("got %q", got)
	}
	// The router switched exactly one encapsulated packet into the ATM
	// network, and the remote router re-encapsulated one out of it.
	if r.ra.ATM.Switched != 1 {
		t.Fatalf("routerA switched = %d", r.ra.ATM.Switched)
	}
	if r.rb.ATM.ReEncapsulated != 1 {
		t.Fatalf("routerB re-encapsulated = %d", r.rb.ATM.ReEncapsulated)
	}
	// Data really crossed the fabric as cells.
	sent, _ := r.fab.TrunkStats()
	if sent == 0 {
		t.Fatal("no cells crossed the fabric")
	}
}

func TestHostToRouterApplication(t *testing.T) {
	// Host client to an application running on the remote router: the
	// remote router's own PF_XUNET consumes the frames (no re-encap).
	r := newRig(t)
	vc, err := r.fab.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		got, _ = s.Recv()
	})
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send([]byte("to router app"))
	})
	r.e.Run()
	if string(got) != "to router app" {
		t.Fatalf("got %q", got)
	}
}

func TestRouterToHost(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	var got []byte
	r.hostB.Spawn("server", func(p *kern.Proc) {
		s, _ := r.hostB.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		got, _ = s.Recv()
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send([]byte("router to host"))
	})
	r.e.Run()
	if string(got) != "router to host" {
		t.Fatalf("got %q", got)
	}
}

func TestEncapWithoutRouterConfigured(t *testing.T) {
	e := sim.New(1)
	n := memnet.New(e)
	ip := n.MustAddNode("lone", memnet.IP4(1, 1, 1, 1))
	h := core.NewHost(e, sim.DefaultCostModel(), core.HostConfig{Name: "lone", Addr: "lone", IP: ip})
	err := h.ATM.Encap(40, mbuf.FromBytes([]byte("x")))
	if !errors.Is(err, protoatm.ErrNoRouter) {
		t.Fatalf("err = %v", err)
	}
}

func TestReconfigureRouter(t *testing.T) {
	r := newRig(t)
	if r.hostA.ATM.RouterIP() != r.ra.M.IP.Addr {
		t.Fatal("initial router config wrong")
	}
	r.hostA.ATM.ConfigureRouter(r.rb.M.IP.Addr)
	if r.hostA.ATM.RouterIP() != r.rb.M.IP.Addr {
		t.Fatal("reconfigure failed")
	}
}

func TestVCIShutDiscardsForwarding(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	delivered := 0
	r.hostB.Spawn("server", func(p *kern.Proc) {
		s, _ := r.hostB.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
			delivered++
		}
	})
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send([]byte("one"))
		p.SP.Sleep(50 * time.Millisecond)
		r.rb.ATM.VCIShut(vc.DstVCI)
		_ = s.Send([]byte("two"))
		p.SP.Sleep(50 * time.Millisecond)
		// Shut at the sending host's router too: its driver refuses the
		// host's next frame, and the layer counts the refusal.
		r.ra.ATM.VCIShut(vc.SrcVCI)
		_ = s.Send([]byte("three"))
		p.SP.Sleep(50 * time.Millisecond)
	})
	r.e.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if !r.rb.ATM.Bound(vc.DstVCI) == false {
		t.Fatal("binding survived shut")
	}
	if r.rb.M.Orc.DiscardedShut != 1 {
		t.Fatalf("DiscardedShut = %d", r.rb.M.Orc.DiscardedShut)
	}
	if got := r.ra.M.Obs.Snapshot().Count("protoatm.refused"); got != 1 {
		t.Fatalf("protoatm.refused = %d, want 1", got)
	}
	r.e.Shutdown()
}

func TestSequenceDetectionOnReorderingPath(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	// Make the hostA->routerA FDDI segment reorder aggressively: a fault
	// plane on hostA's node holds half its packets back up to 6 ms.
	r.hostA.M.IP.SetFaults(faults.NewPlane(faults.Config{PktDelayProb: 0.5, PktDelayMax: 6 * time.Millisecond}))
	received := 0
	r.hostB.Spawn("server", func(p *kern.Proc) {
		s, _ := r.hostB.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		for {
			if _, err := s.Recv(); err != nil {
				return
			}
			received++
		}
	})
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		for i := 0; i < 40; i++ {
			_ = s.Send([]byte{byte(i)})
			p.SP.Sleep(time.Millisecond)
		}
	})
	r.e.RunUntil(5 * time.Second)
	if received == 0 {
		t.Fatal("nothing received")
	}
	if r.ra.ATM.OutOfOrder == 0 {
		t.Fatal("reordering not detected by sequence numbers")
	}
	r.e.Shutdown()
}

func TestHostSendCostsMatchTable1(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	payload := make([]byte, 3*mbuf.MLEN) // 3 mbufs
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		chain := mbuf.FromBytes(payload)
		mcount := chain.Count()
		before := r.hostA.M.Meter.Snapshot()
		_ = s.SendChain(chain)
		d := r.hostA.M.Meter.Snapshot().Sub(before)
		wantATM := int64(cost.ProtoATMSendFixed + cost.PerMbuf*mcount)
		if d[cost.ProtoATM] != wantATM {
			t.Errorf("IPPROTO_ATM send = %d, want %d", d[cost.ProtoATM], wantATM)
		}
		if d[cost.IP] != cost.IPSendCost {
			t.Errorf("IP send = %d, want %d", d[cost.IP], cost.IPSendCost)
		}
		if d[cost.PFXunet] != 0 || d[cost.OrcDriver] != 0 {
			t.Errorf("PF_XUNET/Orc send charged: %v", d)
		}
		// Total: 119 + 8*mbufs.
		if got, want := d.Total(), int64(119+8*mcount); got != want {
			t.Errorf("send total = %d, want %d", got, want)
		}
	})
	r.e.Run()
}

func TestHostReceiveCostsMatchTable1(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	var d cost.Snapshot
	var mcount int
	r.hostB.Spawn("server", func(p *kern.Proc) {
		s, _ := r.hostB.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		before := r.hostB.M.Meter.Snapshot()
		chain, err := s.RecvChain()
		if err != nil {
			t.Error(err)
			return
		}
		mcount = chain.Count()
		d = r.hostB.M.Meter.Snapshot().Sub(before)
	})
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send(make([]byte, 500))
	})
	r.e.Run()
	if d == nil {
		t.Fatal("no measurement")
	}
	if d[cost.IP] != cost.IPRecvCost {
		t.Errorf("IP recv = %d, want %d", d[cost.IP], cost.IPRecvCost)
	}
	if d[cost.ProtoATM] != cost.ProtoATMRecvTotal {
		t.Errorf("IPPROTO_ATM recv = %d, want %d", d[cost.ProtoATM], cost.ProtoATMRecvTotal)
	}
	if d[cost.OrcDriver] != cost.OrcRecvDispatch {
		t.Errorf("Orc recv = %d, want %d", d[cost.OrcDriver], cost.OrcRecvDispatch)
	}
	wantPF := int64(cost.PFXunetRecvFixed + cost.PerMbuf*mcount)
	if d[cost.PFXunet] != wantPF {
		t.Errorf("PF_XUNET recv = %d, want %d", d[cost.PFXunet], wantPF)
	}
	// Total: 194 + 8*mbufs.
	if got, want := d.Total(), int64(194+8*mcount); got != want {
		t.Errorf("recv total = %d, want %d", got, want)
	}
}

func TestRouterSwitchingCostIs39(t *testing.T) {
	r := newRig(t)
	vc := r.provision(t)
	var d cost.Snapshot
	r.hostB.Spawn("server", func(p *kern.Proc) {
		s, _ := r.hostB.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		_, _ = s.Recv()
	})
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		before := r.ra.M.Meter.Snapshot()
		_ = s.Send(make([]byte, 200))
		p.SP.Sleep(100 * time.Millisecond)
		d = r.ra.M.Meter.Snapshot().Sub(before)
	})
	r.e.Run()
	if d == nil {
		t.Fatal("no measurement")
	}
	// §9: +39 instructions of IPPROTO_ATM work at the router, on top of
	// driver input and IP switching.
	if d[cost.ProtoATM] != cost.RouterSwitchTotal {
		t.Fatalf("router IPPROTO_ATM = %d, want %d", d[cost.ProtoATM], cost.RouterSwitchTotal)
	}
}

func TestUnprovisionedVCIFrameFromHostIsDropped(t *testing.T) {
	// A host sends on a VCI the fabric does not know: the router's
	// board emits cells that die at the first switch.
	r := newRig(t)
	r.hostA.Spawn("client", func(p *kern.Proc) {
		s, _ := r.hostA.PF.Socket(p)
		_ = s.Connect(777, 0)
		_ = s.Send([]byte("ghost"))
	})
	r.e.Run()
	if r.ra.ATM.Switched != 1 {
		t.Fatalf("switched = %d", r.ra.ATM.Switched)
	}
	// Cells became unroutable at the switch; no crash, no delivery.
}

// A header naming VCI 65535, past any table, is malformed: the router
// drops it before sequencing, so it neither switches the frame nor sizes
// a per-VCI table to it.
func TestHeaderVCIPastMaxIsDropped(t *testing.T) {
	r := newRig(t)
	wire := []byte{0, 5, 'm', 'h', '.', 'h', '1', 0, 0, 0, 1, 0xFF, 0xFF, 'x'}
	frame := mbuf.FromBytes(wire)
	if err := r.hostA.M.IP.SendChain(r.ra.M.IP.Addr, memnet.ProtoATM, frame); err != nil {
		t.Fatal(err)
	}
	r.e.Run()
	if r.ra.ATM.Decapsulated != 0 || r.ra.ATM.Switched != 0 || !released(frame) {
		t.Fatalf("decapsulated %d, switched %d, released %v; want 0, 0, true",
			r.ra.ATM.Decapsulated, r.ra.ATM.Switched, released(frame))
	}
}

func TestEncapHeaderPrependKeepsChainShort(t *testing.T) {
	// The encapsulation header must use the mbuf leading space, not
	// grow the chain (the per-mbuf costs depend on it).
	r := newRig(t)
	chain := mbuf.FromBytes(bytes.Repeat([]byte{1}, 64))
	count := chain.Count()
	after := -1
	r.hostA.Spawn("app", func(p *kern.Proc) {
		_ = r.hostA.ATM.Encap(40, chain)
		// Inspect before delivery: once consumed downstream, the chain
		// is released to the mbuf free list.
		after = chain.Count()
	})
	r.e.Run()
	if after != count {
		t.Fatalf("prepend grew chain from %d to %d mbufs", count, after)
	}
}

// Two hosts behind one router send on the same VCI, their frames
// interleaved one for one. Each source's numbers run in order, so the
// router must count nothing out of order: sequencing is per (source,
// VCI), not per VCI. Then both sources restart their numbering, and
// each one's next frame counts once.
func TestTwoSourcesInterleaveOnOneVCI(t *testing.T) {
	r := newRig(t)
	ipHC := r.net.MustAddNode("hostC", memnet.IP4(10, 0, 0, 11))
	r.net.Connect(ipHC, r.ra.M.IP, memnet.FDDI())
	ipHC.SetDefaultRoute(r.ra.M.IP)
	r.ra.M.IP.AddRoute(ipHC.Addr, ipHC)
	hostC := core.NewHost(r.e, sim.DefaultCostModel(), core.HostConfig{Name: "hostC", Addr: "mh.hostC", IP: ipHC, RouterIP: r.ra.M.IP.Addr})
	send := func(h *core.Stack) {
		if err := h.ATM.Encap(40, mbuf.FromBytes([]byte("frame"))); err != nil {
			t.Fatal(err)
		}
		r.e.RunFor(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		send(r.hostA)
		send(hostC)
	}
	if r.ra.ATM.Switched != 40 || r.ra.ATM.OutOfOrder != 0 {
		t.Fatalf("switched %d, out of order %d; want 40, 0", r.ra.ATM.Switched, r.ra.ATM.OutOfOrder)
	}
	// VCIShut resets a VCI's send sequence: both next send number 0.
	r.hostA.ATM.VCIShut(40)
	hostC.ATM.VCIShut(40)
	send(hostC)
	send(r.hostA)
	if r.ra.ATM.OutOfOrder != 2 {
		t.Fatalf("out of order %d after both sources restarted at 0, want 2", r.ra.ATM.OutOfOrder)
	}
	r.e.Shutdown()
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

// The encapsulation routines consume a frame even when they refuse it:
// a host's with no router configured, and a router's arriving on a VCI
// whose IP binding is gone.
func TestRefusedFramesAreReleased(t *testing.T) {
	e := sim.New(1)
	ip := memnet.New(e).MustAddNode("lone", memnet.IP4(1, 1, 1, 1))
	h := core.NewHost(e, sim.DefaultCostModel(), core.HostConfig{Name: "lone", Addr: "lone", IP: ip})
	frame := mbuf.FromBytes([]byte("x"))
	if err := h.ATM.Encap(40, frame); !errors.Is(err, protoatm.ErrNoRouter) || !released(frame) {
		t.Fatalf("no router: err %v, released %v", err, released(frame))
	}

	r := newRig(t)
	vc := r.provision(t)
	r.rb.ATM.VCIShut(vc.DstVCI) // drops the binding; the handler is put back
	var late *mbuf.Chain
	r.rb.M.Orc.SetHandler(vc.DstVCI, func(v atm.VCI, f *mbuf.Chain) {
		late = f
		r.rb.ATM.FromATM(v, f)
	})
	if err := r.ra.M.Orc.Output(vc.SrcVCI, mbuf.FromBytes([]byte("late"))); err != nil {
		t.Fatal(err)
	}
	r.e.Run()
	if r.rb.ATM.Unbound != 1 || late == nil || !released(late) {
		t.Fatalf("unbound %d, frame arrived %v, released %v", r.rb.ATM.Unbound, late != nil, late != nil && released(late))
	}
}
