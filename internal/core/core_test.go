package core_test

import (
	"testing"

	"xunet/internal/core"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

func TestNewRouterAssembly(t *testing.T) {
	e := sim.New(1)
	cm := sim.DefaultCostModel()
	fab := xswitch.NewFabric(e)
	sw := fab.MustAddSwitch("sw")
	n := memnet.New(e)
	ip := n.MustAddNode("rt", memnet.IP4(10, 0, 0, 1))
	r, err := core.NewRouter(e, cm, core.RouterConfig{
		Name: "rt", Addr: "mh.rt", IP: ip, Fabric: fab, Switch: sw,
		DeviceBuffers: 42, FDTableSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Router || r.Board == nil {
		t.Fatal("router has no board")
	}
	if r.M.Dev == nil {
		t.Fatal("no pseudo-device")
	}
	// With nothing reading it, the 43rd indication is the first lost.
	for range 43 {
		r.M.Dev.PostUp(kern.KMsg{Kind: kern.MsgBind})
	}
	if r.M.Dev.Lost != 1 {
		t.Fatalf("pseudo-device lost %d of 43 indications, want 1 (42 buffers)", r.M.Dev.Lost)
	}
	if r.M.FDTableSize != 64 {
		t.Fatalf("fd table = %d", r.M.FDTableSize)
	}
	if fab.Endpoint("mh.rt") == nil {
		t.Fatal("endpoint not attached to fabric")
	}
	// Duplicate attachment must fail cleanly.
	if _, err := core.NewRouter(e, cm, core.RouterConfig{
		Name: "rt2", Addr: "mh.rt", IP: ip, Fabric: fab, Switch: sw,
	}); err == nil {
		t.Fatal("duplicate ATM address accepted")
	}
}

func TestNewHostAssembly(t *testing.T) {
	e := sim.New(1)
	cm := sim.DefaultCostModel()
	n := memnet.New(e)
	ip := n.MustAddNode("h", memnet.IP4(10, 0, 0, 10))
	h := core.NewHost(e, cm, core.HostConfig{
		Name: "h", Addr: "mh.h1", IP: ip, RouterIP: memnet.IP4(10, 0, 0, 1),
	})
	if h.Router || h.Board != nil {
		t.Fatal("host has a board")
	}
	if h.M.Dev == nil {
		t.Fatal("no pseudo-device")
	}
}

func TestSpawnRunsOnMachine(t *testing.T) {
	e := sim.New(1)
	n := memnet.New(e)
	ip := n.MustAddNode("h", memnet.IP4(1, 0, 0, 1))
	h := core.NewHost(e, sim.DefaultCostModel(), core.HostConfig{Name: "h", Addr: "h", IP: ip})
	var pid uint32
	h.Spawn("app", func(p *kern.Proc) { pid = p.PID })
	e.Run()
	if pid == 0 {
		t.Fatal("process did not run")
	}
}
