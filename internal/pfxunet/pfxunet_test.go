package pfxunet_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/cost"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/pfxunet"
	"xunet/internal/qos"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

// rig is the paper's testbed: two routers across a 3-hop/2-switch path.
type rig struct {
	e      *sim.Engine
	fab    *xswitch.Fabric
	ra, rb *core.Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.New(1)
	cm := sim.DefaultCostModel()
	fab := xswitch.NewFabric(e)
	swA, swB := xswitch.Testbed(fab)
	n := memnet.New(e)
	ipA := n.MustAddNode("mh.rt", memnet.IP4(10, 0, 0, 1))
	ipB := n.MustAddNode("ucb.rt", memnet.IP4(10, 0, 1, 1))
	ra, err := core.NewRouter(e, cm, core.RouterConfig{
		Name: "mh.rt", Addr: "mh.rt", IP: ipA, Fabric: fab, Switch: swA,
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.NewRouter(e, cm, core.RouterConfig{
		Name: "ucb.rt", Addr: "ucb.rt", IP: ipB, Fabric: fab, Switch: swB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{e: e, fab: fab, ra: ra, rb: rb}
}

// vc provisions a circuit from ra to rb.
func (r *rig) vc(t *testing.T) *xswitch.VC {
	t.Helper()
	vc, err := r.fab.SetupVC(r.ra.Addr, r.rb.Addr, qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	return vc
}

func TestSendReceiveAcrossFabric(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	var got []byte
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, err := r.rb.PF.Socket(p)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Bind(vc.DstVCI, 0); err != nil {
			t.Error(err)
			return
		}
		msg, err := s.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		got = msg
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, err := r.ra.PF.Socket(p)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Connect(vc.SrcVCI, 0); err != nil {
			t.Error(err)
			return
		}
		if err := s.Send([]byte("native mode")); err != nil {
			t.Error(err)
		}
	})
	r.e.Run()
	if string(got) != "native mode" {
		t.Fatalf("got %q", got)
	}
}

func TestManyFramesInOrder(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	var got []int
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		for i := 0; i < 50; i++ {
			msg, err := s.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, int(msg[0]))
		}
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		for i := 0; i < 50; i++ {
			_ = s.Send([]byte{byte(i), 1, 2, 3})
		}
	})
	r.e.Run()
	if len(got) != 50 {
		t.Fatalf("received %d of 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frame %d out of order: %d", i, v)
		}
	}
}

// Recv fills one buffer the socket owns: the next Recv overwrites the
// frame it returned (scribbling over the rest under -race), a larger
// frame grows the buffer, which later frames reuse, and an empty frame
// is nil.
func TestRecvReusesBuffer(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	sends := [][]byte{[]byte("first frame"), []byte("xy"), big, {}, []byte("z")}
	var got [][]byte  // as Recv returned them
	var read []string // as they read when returned
	var kept string   // the first frame's slice after the second Recv
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		for range sends {
			msg, err := s.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if got = append(got, msg); len(got) == 2 {
				kept = string(got[0])
			}
			read = append(read, string(msg))
		}
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		for _, b := range sends {
			_ = s.Send(b)
		}
	})
	r.e.Run()
	if len(got) != len(sends) {
		t.Fatalf("received %d of %d frames", len(got), len(sends))
	}
	for i, b := range sends {
		if read[i] != string(b) {
			t.Errorf("frame %d reads %d bytes %.20q, want %d bytes %.20q", i, len(read[i]), read[i], len(b), b)
		}
	}
	want := "xyrst frame"
	if raceEnabled {
		want = "xy" + strings.Repeat("\xdb", 9)
	}
	if &got[0][0] != &got[1][0] || kept != want {
		t.Errorf("the second frame did not overwrite the first: it reads %q, want %q", kept, want)
	}
	if got[3] != nil {
		t.Errorf("an empty frame returned %q, want nil", got[3])
	}
	if cap(got[2]) < len(big) || &got[4][0] != &got[2][0] {
		t.Errorf("the frame after the grown one is not in the grown buffer")
	}
}

func TestStateMachineErrors(t *testing.T) {
	r := newRig(t)
	r.ra.Spawn("app", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		if err := s.Send([]byte("x")); !errors.Is(err, pfxunet.ErrSockState) {
			t.Errorf("send unconnected: %v", err)
		}
		if _, err := s.Recv(); !errors.Is(err, pfxunet.ErrSockState) {
			// Recv on a created socket: allowed to block? The paper's
			// semantics require a bind first; we report a state error.
			t.Errorf("recv unbound: %v", err)
		}
		if err := s.Bind(0, 0); !errors.Is(err, pfxunet.ErrBadVCI) {
			t.Errorf("bind vci 0: %v", err)
		}
		if err := s.Bind(40, 0); err != nil {
			t.Errorf("bind: %v", err)
		}
		if err := s.Bind(41, 0); !errors.Is(err, pfxunet.ErrSockState) {
			t.Errorf("double bind: %v", err)
		}
		s2, _ := r.ra.PF.Socket(p)
		if err := s2.Connect(40, 0); !errors.Is(err, pfxunet.ErrVCIBusy) {
			t.Errorf("connect busy vci: %v", err)
		}
	})
	r.e.Run()
}

func TestBindPostsIndicationWithCookie(t *testing.T) {
	r := newRig(t)
	var msgs []kern.KMsg
	readDev(r, func(m kern.KMsg) { msgs = append(msgs, m) })
	var pid uint32
	r.ra.Spawn("app", func(p *kern.Proc) {
		pid = p.PID
		s, _ := r.ra.PF.Socket(p)
		_ = s.Bind(50, 0xBEEF)
		s2, _ := r.ra.PF.Socket(p)
		_ = s2.Connect(51, 0xCAFE)
	})
	r.e.Run()
	// Expect BIND_IND, CONNECT_IND, then close indications from exit
	// processing, then EXIT_IND.
	if len(msgs) < 3 {
		t.Fatalf("messages: %v", msgs)
	}
	if msgs[0].Kind != kern.MsgBind || msgs[0].VCI != 50 || msgs[0].Cookie != 0xBEEF || msgs[0].PID != pid {
		t.Fatalf("bind ind = %v", msgs[0])
	}
	if msgs[1].Kind != kern.MsgConnect || msgs[1].VCI != 51 || msgs[1].Cookie != 0xCAFE {
		t.Fatalf("connect ind = %v", msgs[1])
	}
	last := msgs[len(msgs)-1]
	if last.Kind != kern.MsgExit || last.PID != pid {
		t.Fatalf("last = %v", last)
	}
}

func TestClosePostsCloseIndication(t *testing.T) {
	r := newRig(t)
	kinds := readKinds(r)
	r.ra.Spawn("app", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(60, 0)
		s.Close()
	})
	r.e.Run()
	want := []kern.MsgKind{kern.MsgConnect, kern.MsgClose, kern.MsgExit}
	if !slices.Equal(*kinds, want) {
		t.Fatalf("kinds = %v, want %v", *kinds, want)
	}
	if r.ra.PF.ActiveVCIs() != 0 {
		t.Fatal("PCB not cleared on close")
	}
}

// readKinds reads router A's device, as sighost would, recording the
// kind of every indication passed up.
func readKinds(r *rig) *[]kern.MsgKind {
	var kinds []kern.MsgKind
	readDev(r, func(m kern.KMsg) { kinds = append(kinds, m.Kind) })
	return &kinds
}

// readDev hands fn every indication router A's device passes up.
func readDev(r *rig, fn func(kern.KMsg)) {
	var read func(kern.KMsg, bool)
	read = func(m kern.KMsg, ok bool) {
		if ok {
			fn(m)
			r.ra.M.Dev.Arm(read)
		}
	}
	r.ra.M.Dev.Arm(read)
}

func TestProcessExitClosesSocketAndPostsIndications(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	kinds := readKinds(r)
	p := r.ra.Spawn("app", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		p.SP.Park() // hang until killed
	})
	r.e.Go("killer", func(sp *sim.Proc) {
		sp.Sleep(1)
		p.Kill()
	})
	r.e.Run()
	if r.ra.PF.ActiveVCIs() != 0 {
		t.Fatal("VCI leaked after kill")
	}
	// CONNECT_IND, CLOSE_IND (from fd sweep), EXIT_IND.
	want := []kern.MsgKind{kern.MsgConnect, kern.MsgClose, kern.MsgExit}
	if !slices.Equal(*kinds, want) {
		t.Fatalf("kinds = %v, want %v", *kinds, want)
	}
}

func TestSoisdisconnected(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	var recvErr error
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		_, recvErr = s.Recv() // blocked when the disconnect lands
	})
	r.e.Go("sighost-stub", func(sp *sim.Proc) {
		sp.Sleep(1000)
		r.rb.M.Dev.WriteDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: vc.DstVCI})
	})
	r.e.Run()
	if !errors.Is(recvErr, pfxunet.ErrDisconnected) {
		t.Fatalf("recv err = %v", recvErr)
	}
	// Further sends on a disconnected socket fail too.
}

func TestDisconnectedSocketDrainsBufferedFrames(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	var first string
	var secondErr error
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		p.SP.Sleep(50_000_000) // let a frame arrive and buffer
		r.rb.M.Dev.WriteDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: vc.DstVCI})
		msg, _ := s.Recv()
		first = string(msg) // the next Recv reuses msg's storage
		_, secondErr = s.Recv()
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send([]byte("buffered"))
	})
	r.e.Run()
	if first != "buffered" {
		t.Fatalf("buffered frame lost: %q", first)
	}
	if !errors.Is(secondErr, pfxunet.ErrDisconnected) {
		t.Fatalf("second recv err = %v", secondErr)
	}
}

// outstanding reads p's audit: what each of its lists has out.
func outstanding(p *mbuf.Pool) map[string]int {
	out := map[string]int{}
	p.Audit(func(list string, n, _ int) { out[list] = n })
	return out
}

// Closing a socket flushes what it buffered, as soclose's sbflush does:
// frames queued on a closed socket, disconnected first or not, go back
// to the receiving router's pool.
func TestCloseReleasesBufferedFrames(t *testing.T) {
	for _, disconnect := range []bool{false, true} {
		r := newRig(t)
		vc := r.vc(t)
		queued := -1
		r.rb.Spawn("server", func(p *kern.Proc) {
			s, _ := r.rb.PF.Socket(p)
			_ = s.Bind(vc.DstVCI, 0)
			p.SP.Sleep(50 * time.Millisecond) // let the frames arrive and buffer
			if disconnect {
				r.rb.M.Dev.WriteDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: vc.DstVCI})
			}
			queued = outstanding(r.rb.M.Pool)["chains"]
			s.Close()
		})
		r.ra.Spawn("client", func(p *kern.Proc) {
			s, _ := r.ra.PF.Socket(p)
			_ = s.Connect(vc.SrcVCI, 0)
			for i := 0; i < 3; i++ {
				_ = s.Send([]byte("unread"))
			}
		})
		r.e.Run()
		if queued != 3 {
			t.Fatalf("disconnect %v: %d chains queued before the close, want 3", disconnect, queued)
		}
		for _, m := range []*kern.Machine{r.ra.M, r.rb.M} {
			if out := outstanding(m.Pool); out["chains"]+out["mbufs"]+out["clusters"] != 0 {
				t.Fatalf("disconnect %v: not released after the close at %s: %v", disconnect, m.Name, out)
			}
		}
	}
}

func TestNoSocketDrop(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send([]byte("nobody home"))
	})
	r.e.Run()
	// Frame reaches rb's driver but no handler is installed for the VCI
	// (no socket bound): the driver discards it.
	if r.rb.M.Orc.DiscardedNoHandler != 1 {
		t.Fatalf("DiscardedNoHandler = %d", r.rb.M.Orc.DiscardedNoHandler)
	}
}

func TestReceiveCostsMatchTable1(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	payload := make([]byte, 5*mbuf.MLEN) // 5 small mbufs on receive
	done := make(chan struct{}, 1)
	_ = done
	var before, after cost.Snapshot
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		before = r.rb.M.Meter.Snapshot()
		chain, err := s.RecvChain()
		if err != nil {
			t.Error(err)
			return
		}
		after = r.rb.M.Meter.Snapshot()
		// PF_XUNET: 99 + 8 * mbufs.
		wantPF := int64(cost.PFXunetRecvFixed + cost.PerMbuf*chain.Count())
		d := after.Sub(before)
		if d[cost.PFXunet] != wantPF {
			t.Errorf("PF_XUNET recv = %d, want %d (mbufs=%d)", d[cost.PFXunet], wantPF, chain.Count())
		}
		if d[cost.OrcDriver] != cost.OrcRecvDispatch {
			t.Errorf("Orc recv = %d, want %d", d[cost.OrcDriver], cost.OrcRecvDispatch)
		}
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		_ = s.Send(payload)
	})
	r.e.Run()
	if before == nil || after == nil {
		t.Fatal("measurement did not run")
	}
}

func TestSendCostsZeroAtRouter(t *testing.T) {
	// Table 1: on the send side at a router, PF_XUNET and Orc charge
	// nothing (the board does the work).
	r := newRig(t)
	vc := r.vc(t)
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		before := r.ra.M.Meter.Snapshot()
		_ = s.Send(make([]byte, 1000))
		d := r.ra.M.Meter.Snapshot().Sub(before)
		if d[cost.PFXunet] != 0 || d[cost.OrcDriver] != 0 {
			t.Errorf("router send charged %v", d)
		}
	})
	r.e.Run()
}

func TestRecvBufferOverflowDrops(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		p.SP.Park() // never reads: buffer fills
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		for i := 0; i < 20; i++ {
			_ = s.Send(make([]byte, 8000)) // 160 KB total > 64 KB limit
			// Pace below the trunk rate so the loss happens at the
			// socket buffer, not in a switch queue.
			p.SP.Sleep(5_000_000)
		}
	})
	r.e.Run()
	if r.rb.PF.DroppedOverflow == 0 {
		t.Fatal("no overflow drops")
	}
	r.e.Shutdown()
}

func TestSendChain(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	var got []byte
	r.rb.Spawn("server", func(p *kern.Proc) {
		s, _ := r.rb.PF.Socket(p)
		_ = s.Bind(vc.DstVCI, 0)
		got, _ = s.Recv()
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		c := mbuf.FromBytesSplit([]byte("chained payload"), 4)
		_ = s.SendChain(c)
	})
	r.e.Run()
	if string(got) != "chained payload" {
		t.Fatalf("got %q", got)
	}
}

func TestTwoCircuitsBidirectional(t *testing.T) {
	// Simplex circuits in both directions (the paper's file-service
	// example needs a return connection).
	r := newRig(t)
	ab := r.vc(t)
	ba, err := r.fab.SetupVC(r.rb.Addr, r.ra.Addr, qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	r.rb.Spawn("server", func(p *kern.Proc) {
		in, _ := r.rb.PF.Socket(p)
		_ = in.Bind(ab.DstVCI, 0)
		out, _ := r.rb.PF.Socket(p)
		_ = out.Connect(ba.SrcVCI, 0)
		msg, err := in.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		_ = out.Send(append([]byte("echo: "), msg...))
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		out, _ := r.ra.PF.Socket(p)
		_ = out.Connect(ab.SrcVCI, 0)
		in, _ := r.ra.PF.Socket(p)
		_ = in.Bind(ba.DstVCI, 0)
		_ = out.Send([]byte("hi"))
		reply, _ = in.Recv()
	})
	r.e.Run()
	if string(reply) != "echo: hi" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestSocketFDAccounting(t *testing.T) {
	r := newRig(t)
	r.ra.Spawn("app", func(p *kern.Proc) {
		// Each socket takes a descriptor, until the table is full.
		var last *pfxunet.Socket
		for {
			s, err := r.ra.PF.Socket(p)
			if err != nil {
				if !errors.Is(err, kern.ErrEMFILE) {
					t.Errorf("socket on a full table: %v", err)
				}
				break
			}
			last = s
		}
		last.Close()
		if _, err := r.ra.PF.Socket(p); err != nil {
			t.Errorf("PF_XUNET socket close must free the fd immediately (no TIME_WAIT): %v", err)
		}
	})
	r.e.Run()
}

func TestBindAfterDisconnectedVCIFreed(t *testing.T) {
	r := newRig(t)
	var rebindErr error
	r.ra.Spawn("app", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Bind(70, 0)
		r.ra.M.Dev.WriteDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: 70})
		s.Close()
		s2, _ := r.ra.PF.Socket(p)
		rebindErr = s2.Bind(70, 0)
	})
	r.e.Run()
	if rebindErr != nil {
		t.Fatalf("rebind after disconnect+close: %v", rebindErr)
	}
}

var _ = atm.VCI(0) // keep import when test list shifts

// A kernel socket with a receiver takes each frame in the event that
// delivers it, after the same Table 1 receive charges as a queued frame,
// and queues nothing for Recv.
func TestReceiverTakesFramesInPlace(t *testing.T) {
	r := newRig(t)
	vc := r.vc(t)
	payload := make([]byte, 5*mbuf.MLEN)
	var rx *pfxunet.Socket
	var got []int
	var charged int64
	r.rb.Spawn("owner", func(p *kern.Proc) {
		before := r.rb.M.Meter.Snapshot()
		rx = r.rb.PF.KernelSocket(p, func(frame *mbuf.Chain) {
			got = append(got, frame.Len())
			charged = r.rb.M.Meter.Snapshot().Sub(before)[cost.PFXunet]
			want := int64(cost.PFXunetRecvFixed + cost.PerMbuf*frame.Count())
			if len(got) == 1 && charged != want {
				t.Errorf("PF_XUNET recv = %d before the receiver ran, want %d", charged, want)
			}
			frame.Release()
		})
		_ = rx.Bind(vc.DstVCI, 0)
		before = r.rb.M.Meter.Snapshot()
		p.SP.Park()
	})
	r.ra.Spawn("client", func(p *kern.Proc) {
		s, _ := r.ra.PF.Socket(p)
		_ = s.Connect(vc.SrcVCI, 0)
		for range 3 {
			_ = s.Send(payload)
		}
	})
	r.e.RunUntil(time.Second)
	if len(got) != 3 || got[0] != len(payload) || rx.FramesIn != 3 || rx.Queued() != 0 {
		t.Fatalf("receiver took %v; FramesIn %d, %d frames queued", got, rx.FramesIn, rx.Queued())
	}
}
