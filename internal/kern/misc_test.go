package kern

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xunet/internal/memnet"
)

// Coverage for the smaller kernel entry points.

func TestSyscallCharge(t *testing.T) {
	e, h, _ := rig(t)
	var took time.Duration
	h.Spawn("app", func(p *Proc) {
		start := p.SP.Now()
		p.Syscall()
		took = p.SP.Now() - start
	})
	e.Run()
	if took != h.CM.SyscallEntry {
		t.Fatalf("syscall took %v, want %v", took, h.CM.SyscallEntry)
	}
}

func TestContextSwitchesZeroIsFree(t *testing.T) {
	e, h, _ := rig(t)
	var took time.Duration
	h.Spawn("app", func(p *Proc) {
		start := p.SP.Now()
		p.ContextSwitches(0)
		p.ContextSwitches(-3)
		took = p.SP.Now() - start
	})
	e.Run()
	if took != 0 {
		t.Fatalf("non-positive switches took %v", took)
	}
}

func TestFDAccessor(t *testing.T) {
	e, h, _ := rig(t)
	h.Spawn("app", func(p *Proc) {
		obj := &fakeFD{}
		fd, _ := p.AllocFD(obj)
		got, err := p.FD(fd)
		if err != nil || got != FDObject(obj) {
			t.Errorf("FD() = %v, %v", got, err)
		}
		if _, err := p.FD(-1); !errors.Is(err, errEBADF) {
			t.Errorf("negative fd err = %v", err)
		}
	})
	e.Run()
}

func TestMsgKindStrings(t *testing.T) {
	cases := map[MsgKind]string{
		MsgExit:    "EXIT_IND",
		MsgBind:    "BIND_IND",
		MsgConnect: "CONNECT_IND",
		MsgClose:   "CLOSE_IND",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(MsgKind(99).String(), "99") {
		t.Error("unknown kind string")
	}
	m := KMsg{Kind: MsgBind, VCI: 7, Cookie: 9, PID: 3}
	s := m.String()
	for _, want := range []string{"BIND_IND", "vci=7", "cookie=9", "pid=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("KMsg.String() = %q missing %q", s, want)
		}
	}
}

func TestPseudoDevDefaults(t *testing.T) {
	e, h, _ := rig(t)
	_ = h
	d := newPseudoDev(e, 0)
	if d.Capacity() != defaultDeviceBuffers {
		t.Fatalf("default capacity = %d", d.Capacity())
	}
	d2 := newPseudoDev(e, -5)
	if d2.Capacity() != defaultDeviceBuffers {
		t.Fatalf("negative capacity = %d", d2.Capacity())
	}
}

func TestListenerPortAndAcceptTimeout(t *testing.T) {
	e, h, r := rig(t)
	var timedOut bool
	r.Spawn("server", func(p *Proc) {
		l, err := p.Listen(5123)
		if err != nil {
			t.Error(err)
			return
		}
		_, err = l.AcceptTimeout(50 * time.Millisecond)
		timedOut = errors.Is(err, memnet.ErrDialTimeout)
		// Then a real connection arrives inside the next timeout.
		ks, err := l.AcceptTimeout(5 * time.Second)
		if err != nil {
			t.Errorf("second accept: %v", err)
			return
		}
		if ks.RemoteAddr() != h.IP.Addr {
			t.Errorf("remote = %v", ks.RemoteAddr())
		}
		ks.Close()
		l.Close()
	})
	h.Spawn("client", func(p *Proc) {
		p.SP.Sleep(200 * time.Millisecond)
		ks, err := p.Dial(r.IP.Addr, 5123)
		if err != nil {
			t.Error(err)
			return
		}
		p.SP.Sleep(100 * time.Millisecond)
		ks.Close()
	})
	e.Run()
	if !timedOut {
		t.Fatal("AcceptTimeout did not time out")
	}
}

func TestDownCmdDispatchWithoutHandler(t *testing.T) {
	e, _, _ := rig(t)
	d := newPseudoDev(e, 8)
	d.WriteDown(DownCmd{Kind: DownDisconnect, VCI: 1}) // no handler: no panic
}
