package anand

import (
	"testing"
	"testing/quick"
	"time"

	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

func TestCodecRoundTrip(t *testing.T) {
	up := kern.KMsg{Kind: kern.MsgBind, VCI: 1234, Cookie: 0xBEEF, PID: 99}
	gotUp, _, isUp, err := decode(encodeUp(up))
	if err != nil || !isUp || gotUp != up {
		t.Fatalf("up: %+v %v %v", gotUp, isUp, err)
	}
	down := kern.DownCmd{Kind: kern.DownDisconnect, VCI: 777}
	_, gotDown, isUp2, err := decode(encodeDown(down))
	if err != nil || isUp2 || gotDown != down {
		t.Fatalf("down: %+v %v %v", gotDown, isUp2, err)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, _, err := decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, _, err := decode([]byte{frameUp, 1, 2, 3}); err == nil {
		t.Fatal("short up frame accepted")
	}
	if _, _, _, err := decode([]byte{99, 0, 0, 0}); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
}

func TestQuickCodec(t *testing.T) {
	f := func(kind uint8, vci, cookie uint16, pid uint32) bool {
		up := kern.KMsg{Kind: kern.MsgKind(kind), VCI: atm.VCI(vci), Cookie: cookie, PID: pid}
		got, _, isUp, err := decode(encodeUp(up))
		return err == nil && isUp && got == up
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// rig builds a router with a fabric attachment and one host behind it.
func rig(t *testing.T) (*sim.Engine, *core.Stack, *core.Stack, *Server, *Client) {
	t.Helper()
	e := sim.New(1)
	cm := sim.DefaultCostModel()
	fab := xswitch.NewFabric(e)
	sw, err := fab.AddSwitch("sw")
	if err != nil {
		t.Fatal(err)
	}
	n := memnet.New(e)
	ipR := n.MustAddNode("rt", memnet.IP4(10, 0, 0, 1))
	ipH := n.MustAddNode("h", memnet.IP4(10, 0, 0, 10))
	n.Connect(ipR, ipH, memnet.FDDI())
	ipH.SetDefaultRoute(ipR)
	ipR.AddRoute(ipH.Addr, ipH)
	router, err := core.NewRouter(e, cm, core.RouterConfig{Name: "rt", Addr: "rt", IP: ipR, Fabric: fab, Switch: sw})
	if err != nil {
		t.Fatal(err)
	}
	host := core.NewHost(e, cm, core.HostConfig{Name: "h", Addr: "h", IP: ipH, RouterIP: ipR.Addr})
	srv, err := StartServer(router, 178)
	if err != nil {
		t.Fatal(err)
	}
	cli := StartClient(host, ipR.Addr, 178)
	return e, router, host, srv, cli
}

func TestRelayUpward(t *testing.T) {
	e, _, host, srv, cli := rig(t)
	var got []kern.KMsg
	var from memnet.IPAddr
	srv.OnKernel = func(f memnet.IPAddr, k kern.KMsg) {
		from = f
		got = append(got, k)
	}
	e.Schedule(100*time.Millisecond, func() {
		host.M.Dev.PostUp(kern.KMsg{Kind: kern.MsgConnect, VCI: 50, Cookie: 7, PID: 3})
	})
	e.RunUntil(time.Second)
	if len(got) != 1 || got[0].VCI != 50 || got[0].Cookie != 7 {
		t.Fatalf("got %v", got)
	}
	if from != host.M.IP.Addr {
		t.Fatalf("from = %v", from)
	}
	if cli.Relayed != 1 {
		t.Fatalf("client relayed = %d", cli.Relayed)
	}
	e.Shutdown()
}

func TestBindInstallsVCIForwarding(t *testing.T) {
	e, router, host, srv, _ := rig(t)
	srv.OnKernel = func(memnet.IPAddr, kern.KMsg) {}
	e.Schedule(100*time.Millisecond, func() {
		host.M.Dev.PostUp(kern.KMsg{Kind: kern.MsgBind, VCI: 60, Cookie: 1, PID: 2})
	})
	e.RunUntil(time.Second)
	if !router.ATM.Bound(60) {
		t.Fatal("VCI_BIND not installed at router")
	}
	if srv.Binds != 1 {
		t.Fatalf("Binds = %d", srv.Binds)
	}
	// A close clears it again (VCI_SHUT).
	e.Schedule(0, func() {
		host.M.Dev.PostUp(kern.KMsg{Kind: kern.MsgClose, VCI: 60})
	})
	e.RunUntil(2 * time.Second)
	if router.ATM.Bound(60) {
		t.Fatal("VCI_SHUT did not clear the binding")
	}
	if srv.Shuts != 1 {
		t.Fatalf("Shuts = %d", srv.Shuts)
	}
	e.Shutdown()
}

func TestDisconnectRelaysDownward(t *testing.T) {
	e, router, host, srv, _ := rig(t)
	srv.OnKernel = func(memnet.IPAddr, kern.KMsg) {}
	// Bind a host socket so soisdisconnected has a target.
	var recvErr error
	host.Spawn("app", func(p *kern.Proc) {
		s, err := host.PF.Socket(p)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Bind(70, 0); err != nil {
			t.Error(err)
			return
		}
		_, recvErr = s.Recv()
	})
	e.Schedule(500*time.Millisecond, func() {
		if !srv.Connected(host.M.IP.Addr) {
			t.Error("host not connected to anand server")
		}
		srv.Disconnect(host.M.IP.Addr, 70)
	})
	e.RunUntil(5 * time.Second)
	if recvErr == nil {
		t.Fatal("host socket not disconnected")
	}
	_ = router
	e.Shutdown()
}

func TestDisconnectUnknownHostIsNoop(t *testing.T) {
	e, _, _, srv, _ := rig(t)
	srv.Disconnect(memnet.IP4(9, 9, 9, 9), 70) // must not panic
	e.RunUntil(time.Second)
	e.Shutdown()
}
