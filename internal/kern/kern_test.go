package kern

import (
	"errors"
	"slices"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/memnet"
	"xunet/internal/sim"
)

// rig builds two machines (host, router) on a shared FDDI segment.
func rig(t *testing.T) (*sim.Engine, *Machine, *Machine) {
	t.Helper()
	e := sim.New(1)
	n := memnet.New(e)
	hn := n.MustAddNode("host", memnet.IP4(10, 0, 0, 1))
	rn := n.MustAddNode("router", memnet.IP4(10, 0, 0, 2))
	n.Connect(hn, rn, memnet.FDDI())
	hn.SetDefaultRoute(rn)
	rn.SetDefaultRoute(hn)
	cm := sim.DefaultCostModel()
	return e, NewMachine("host", e, cm, hn), NewMachine("router", e, cm, rn)
}

func TestSpawnAndExit(t *testing.T) {
	e, h, _ := rig(t)
	ran := false
	p := h.Spawn("app", func(p *Proc) { ran = true })
	e.Run()
	if !ran || !p.Exited() {
		t.Fatalf("ran=%v exited=%v", ran, p.Exited())
	}
	if h.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", h.LiveProcs())
	}
}

func TestPIDsDistinct(t *testing.T) {
	e, h, _ := rig(t)
	p1 := h.Spawn("a", func(p *Proc) { p.SP.Sleep(time.Second) })
	p2 := h.Spawn("b", func(p *Proc) { p.SP.Sleep(time.Second) })
	if p1.PID == p2.PID {
		t.Fatal("duplicate pids")
	}
	if h.Proc(p1.PID) != p1 || h.Proc(p2.PID) != p2 {
		t.Fatal("lookup broken")
	}
	e.Run()
}

type fakeFD struct{ closed int }

func (f *fakeFD) KClose() { f.closed++ }

type fakeTWFD struct{ fakeFD }

func (f *fakeTWFD) holdsTimeWait() bool { return true }

func TestFDAllocationLimits(t *testing.T) {
	e, h, _ := rig(t)
	h.FDTableSize = 3
	var allocErr error
	h.Spawn("app", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if _, err := p.AllocFD(&fakeFD{}); err != nil {
				t.Errorf("alloc %d: %v", i, err)
			}
		}
		_, allocErr = p.AllocFD(&fakeFD{})
	})
	e.Run()
	if !errors.Is(allocErr, ErrEMFILE) {
		t.Fatalf("err = %v", allocErr)
	}
}

func TestCloseFreesSlotImmediatelyWithoutTimeWait(t *testing.T) {
	e, h, _ := rig(t)
	h.FDTableSize = 1
	ok := true
	h.Spawn("app", func(p *Proc) {
		f := &fakeFD{}
		fd, _ := p.AllocFD(f)
		_ = p.CloseFD(fd)
		if f.closed != 1 {
			ok = false
		}
		if _, err := p.AllocFD(&fakeFD{}); err != nil {
			ok = false
		}
	})
	e.Run()
	if !ok {
		t.Fatal("slot not reusable after close")
	}
}

func TestTimeWaitHoldsSlot(t *testing.T) {
	e, h, _ := rig(t)
	h.FDTableSize = 1
	var midErr, lateErr error
	h.Spawn("app", func(p *Proc) {
		fd, _ := p.AllocFD(&fakeTWFD{})
		_ = p.CloseFD(fd)
		if p.TimeWaitFDs() != 1 {
			t.Error("no TIME_WAIT slot")
		}
		_, midErr = p.AllocFD(&fakeFD{})
		p.SP.Sleep(2*h.CM.MSL + time.Millisecond)
		_, lateErr = p.AllocFD(&fakeFD{})
	})
	e.Run()
	if !errors.Is(midErr, ErrEMFILE) {
		t.Fatalf("mid err = %v", midErr)
	}
	if lateErr != nil {
		t.Fatalf("late err = %v", lateErr)
	}
}

func TestExitClosesFDs(t *testing.T) {
	e, h, _ := rig(t)
	f1, f2 := &fakeFD{}, &fakeTWFD{}
	h.Spawn("app", func(p *Proc) {
		p.AllocFD(f1)
		p.AllocFD(f2)
	})
	e.Run()
	if f1.closed != 1 || f2.closed != 1 {
		t.Fatalf("closed %d/%d", f1.closed, f2.closed)
	}
}

func TestKillRunsExitProcessing(t *testing.T) {
	e, h, _ := rig(t)
	f := &fakeFD{}
	p := h.Spawn("app", func(p *Proc) {
		p.AllocFD(f)
		p.SP.Park() // hang forever
	})
	e.Go("killer", func(sp *sim.Proc) {
		sp.Sleep(time.Second)
		p.Kill()
	})
	e.Run()
	if f.closed != 1 || !p.Exited() {
		t.Fatalf("closed=%d exited=%v", f.closed, p.Exited())
	}
}

func TestExitPostsTerminationIndication(t *testing.T) {
	e, h, _ := rig(t)
	dev := h.InstallPseudoDev(8)
	h.Spawn("app", func(p *Proc) {})
	e.Run()
	msg, ok := dev.TryReadUp()
	if !ok || msg.Kind != MsgExit {
		t.Fatalf("msg=%v ok=%v", msg, ok)
	}
	if msg.PID == 0 {
		t.Fatal("no pid in exit indication")
	}
}

func TestPseudoDevBoundedBuffer(t *testing.T) {
	e, h, _ := rig(t)
	dev := h.InstallPseudoDev(8)
	// No reader: the ninth message must be lost.
	for i := 0; i < 12; i++ {
		dev.PostUp(KMsg{Kind: MsgBind, VCI: atm.VCI(i)})
	}
	if dev.Lost != 4 || dev.Posted != 8 {
		t.Fatalf("lost=%d posted=%d", dev.Lost, dev.Posted)
	}
	if dev.Buffered() != 8 {
		t.Fatalf("buffered = %d", dev.Buffered())
	}
	e.Run()
}

func TestPseudoDevOverflowTelemetry(t *testing.T) {
	e, h, _ := rig(t)
	dev := h.InstallPseudoDev(8) // InstallPseudoDev instruments against h.Obs
	for i := 0; i < 12; i++ {
		dev.PostUp(KMsg{Kind: MsgBind, VCI: atm.VCI(i)})
	}
	snap := h.Obs.Snapshot()
	if got := snap.Count("kern.dev.overflows"); got != 4 {
		t.Fatalf("overflows = %d", got)
	}
	if got := snap.Count("kern.dev.posted"); got != 8 {
		t.Fatalf("posted = %d", got)
	}
	if got := snap.Count("kern.dev.lost"); got != 4 {
		t.Fatalf("lost = %d", got)
	}
	// The depth gauge's high-water mark pins at capacity once a drop has
	// occurred, then the current value falls as a reader drains.
	g := h.Obs.Gauge("kern.dev.depth")
	if g.Max() != 8 || g.Value() != 8 {
		t.Fatalf("depth gauge = %d max=%d", g.Value(), g.Max())
	}
	for dev.Buffered() > 0 {
		dev.TryReadUp()
	}
	dev.PostUp(KMsg{Kind: MsgBind, VCI: 99})
	if g.Value() != 1 || g.Max() != 8 {
		t.Fatalf("after drain: depth gauge = %d max=%d", g.Value(), g.Max())
	}
	e.Run()
}

func TestPseudoDevReaderKeepsBufferEmpty(t *testing.T) {
	e, h, _ := rig(t)
	dev := h.InstallPseudoDev(2)
	var got []KMsg
	var read func(KMsg, bool)
	read = func(m KMsg, ok bool) {
		if ok {
			got = append(got, m)
			dev.Arm(read)
		}
	}
	dev.Arm(read)
	e.Go("kernel", func(sp *sim.Proc) {
		for i := 0; i < 20; i++ {
			dev.PostUp(KMsg{Kind: MsgBind, VCI: atm.VCI(i)})
			sp.Sleep(time.Millisecond)
		}
		dev.Close()
	})
	e.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	if dev.Lost != 0 {
		t.Fatalf("lost = %d with an active reader", dev.Lost)
	}
}

func TestPseudoDevWriteDownDisconnects(t *testing.T) {
	_, h, _ := rig(t)
	dev := h.InstallPseudoDev(8)
	var got []atm.VCI
	h.RegisterFamily(disconnectRecorder{&got})
	dev.WriteDown(DownCmd{Kind: DownDisconnect, VCI: 42})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

type disconnectRecorder struct{ vcis *[]atm.VCI }

func (d disconnectRecorder) Soisdisconnected(v atm.VCI) { *d.vcis = append(*d.vcis, v) }

func TestKStreamEndToEnd(t *testing.T) {
	e, h, r := rig(t)
	var got string
	r.Spawn("server", func(p *Proc) {
		l, err := p.Listen(5000)
		if err != nil {
			t.Error(err)
			return
		}
		ks, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		msg, ok := ks.Recv()
		if ok {
			got = string(msg)
		}
		ks.Close()
		l.Close()
	})
	h.Spawn("client", func(p *Proc) {
		p.SP.Sleep(time.Millisecond)
		ks, err := p.Dial(r.IP.Addr, 5000)
		if err != nil {
			t.Error(err)
			return
		}
		_ = ks.Send([]byte("hello kernel"))
		ks.Close()
	})
	e.Run()
	if got != "hello kernel" {
		t.Fatalf("got %q", got)
	}
}

func TestKStreamFDsEnterTimeWait(t *testing.T) {
	e, h, r := rig(t)
	r.Spawn("server", func(p *Proc) {
		l, _ := p.Listen(5000)
		for {
			ks, err := l.Accept()
			if err != nil {
				return
			}
			ks.Close() // active close -> TIME_WAIT at server
		}
	})
	var twSeen int
	h.Spawn("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ks, err := p.Dial(r.IP.Addr, 5000)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			// Wait for server close, then close our end.
			ks.RecvTimeout(time.Second)
			ks.Close()
		}
		p.SP.Sleep(100 * time.Millisecond)
		twSeen = p.TimeWaitFDs()
	})
	e.RunUntil(10 * time.Second) // less than 2*MSL: TIME_WAIT still held
	if twSeen != 3 {
		t.Fatalf("client TIME_WAIT fds = %d, want 3", twSeen)
	}
	e.Run()
}

func TestAcceptEMFILEWhenTableFull(t *testing.T) {
	e, h, r := rig(t)
	r.FDTableSize = 2 // listener + one connection
	var acceptErr error
	r.Spawn("server", func(p *Proc) {
		l, _ := p.Listen(5000)
		// Let both clients connect first (the backlog holds them).
		p.SP.Sleep(10 * time.Millisecond)
		if _, err := l.Accept(); err != nil {
			t.Error(err)
			return
		}
		_, acceptErr = l.Accept()
	})
	h.Spawn("clients", func(p *Proc) {
		p.SP.Sleep(time.Millisecond)
		for i := 0; i < 2; i++ {
			if _, err := p.Dial(r.IP.Addr, 5000); err != nil {
				t.Errorf("dial %d: %v", i, err)
			}
		}
	})
	e.Run()
	if !errors.Is(acceptErr, ErrEMFILE) {
		t.Fatalf("accept err = %v", acceptErr)
	}
}

func TestDialFailureReleasesFD(t *testing.T) {
	e, h, r := rig(t)
	var free0, free1 int
	h.Spawn("client", func(p *Proc) {
		free0 = p.FreeFDs()
		if _, err := p.Dial(r.IP.Addr, 404); err == nil {
			t.Error("dial to closed port succeeded")
		}
		free1 = p.FreeFDs()
	})
	e.Run()
	if free0 != free1 {
		t.Fatalf("fd leaked on failed dial: %d -> %d", free0, free1)
	}
}

func TestSyscallAndSwitchCosts(t *testing.T) {
	e, h, _ := rig(t)
	var took time.Duration
	h.Spawn("app", func(p *Proc) {
		start := p.SP.Now()
		p.ContextSwitches(4)
		took = p.SP.Now() - start
	})
	e.Run()
	if took != 4*h.CM.ContextSwitch {
		t.Fatalf("4 switches took %v", took)
	}
}

func TestOpenFDCounters(t *testing.T) {
	e, h, _ := rig(t)
	h.Spawn("app", func(p *Proc) {
		if p.OpenFDs() != 0 || p.FreeFDs() != h.FDTableSize {
			t.Error("initial counters wrong")
		}
		fd, _ := p.AllocFD(&fakeFD{})
		if p.OpenFDs() != 1 {
			t.Error("open count wrong")
		}
		_ = p.CloseFD(fd)
		if p.OpenFDs() != 0 {
			t.Error("close not counted")
		}
		if err := p.CloseFD(fd); !errors.Is(err, errEBADF) {
			t.Errorf("double close err = %v", err)
		}
		if _, err := p.FD(99); !errors.Is(err, errEBADF) {
			t.Errorf("bad fd err = %v", err)
		}
	})
	e.Run()
}

// An armed read takes one message: a buffered one at once, else the
// next post, which then occupies no buffer. Until the reader arms again,
// posts buffer, and a full buffer loses them; a closed device tells the
// reader once it is drained.
func TestPseudoDevArmedRead(t *testing.T) {
	_, h, _ := rig(t)
	dev := h.InstallPseudoDev(2)
	var got []atm.VCI
	closed := 0
	read := func(m KMsg, ok bool) {
		if !ok {
			closed++
		}
		got = append(got, m.VCI)
	}
	dev.Arm(read)
	dev.PostUp(KMsg{Kind: MsgBind, VCI: 1}) // straight to the reader
	for v := atm.VCI(2); v <= 4; v++ {
		dev.PostUp(KMsg{Kind: MsgBind, VCI: v}) // 2 and 3 buffer, 4 is lost
	}
	if !slices.Equal(got, []atm.VCI{1}) || dev.Buffered() != 2 || dev.Lost != 1 {
		t.Fatalf("read %v, %d buffered, %d lost; want [1], 2 and 1", got, dev.Buffered(), dev.Lost)
	}
	dev.Arm(read) // a buffered message is taken now
	dev.Arm(read)
	dev.Arm(read) // nothing buffered: armed for the next post
	dev.PostUp(KMsg{Kind: MsgBind, VCI: 5})
	dev.PostUp(KMsg{Kind: MsgBind, VCI: 6})
	if !slices.Equal(got, []atm.VCI{1, 2, 3, 5}) || dev.Buffered() != 1 || dev.Posted != 5 {
		t.Fatalf("read %v, %d buffered, %d posted; want [1 2 3 5], 1 and 5", got, dev.Buffered(), dev.Posted)
	}
	dev.Arm(read) // 6
	dev.Arm(read)
	dev.Close() // the armed reader hears of it
	dev.Arm(read)
	if !slices.Equal(got, []atm.VCI{1, 2, 3, 5, 6, 0, 0}) || closed != 2 {
		t.Fatalf("read %v, %d closes; want [1 2 3 5 6 0 0] and 2", got, closed)
	}
}
