package testbed_test

import (
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

func TestReportSnapshot(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	testbed.StartEchoServer(rb, "echo", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "echo", testbed.StormConfig{Count: 5, Hold: time.Second, FramesPerCall: 1})
	n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
	if res.Succeeded != 5 {
		t.Fatalf("calls %d/5", res.Succeeded)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	rep := n.Snapshot()
	if rep.CellsSent == 0 {
		t.Fatal("no cells counted")
	}
	if len(rep.Routers) != 2 {
		t.Fatalf("routers = %d", len(rep.Routers))
	}
	// Sorted by address: mh.rt before ucb.rt.
	if rep.Routers[0].Addr != "mh.rt" || rep.Routers[1].Addr != "ucb.rt" {
		t.Fatalf("order: %s, %s", rep.Routers[0].Addr, rep.Routers[1].Addr)
	}
	if rep.Routers[0].Established != 5 || rep.Routers[0].Torn != 5 {
		t.Fatalf("mh.rt estab/torn = %d/%d", rep.Routers[0].Established, rep.Routers[0].Torn)
	}
	if rep.Routers[1].Services != 1 {
		t.Fatalf("ucb.rt services = %d", rep.Routers[1].Services)
	}
	out := rep.String()
	for _, want := range []string{"fabric:", "per class", "mh.rt", "ucb.rt", "dev-post"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	n.E.Shutdown()
}

// TestReportDetectsLeak plants one piece of residue per row: Audit must
// name it while it is held, and read clean once it is let go.
func TestReportDetectsLeak(t *testing.T) {
	for _, row := range []struct {
		name, want string
		plant      func(n *testbed.Net, ra *testbed.Router) (release func())
	}{
		{"pending bind", "wait_bind=1", func(n *testbed.Net, ra *testbed.Router) func() {
			testbed.StartEchoServer(n.Routers[1], "echo", 6000)
			ra.Stack.Spawn("client", func(p *kern.Proc) {
				p.SP.Sleep(100 * time.Millisecond)
				_, _ = ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "") // and never binds
				p.SP.Park()
			})
			return func() {} // the bind timer releases it
		}},
		{"stale VCI binding", "mh.rt hobbit holds VCIs its endpoint has not granted: [vci600]", func(_ *testbed.Net, ra *testbed.Router) func() {
			ra.Stack.ATM.VCIBind(600, memnet.IP4(10, 1, 0, 11)) // a VCI_BIND no grant backs
			return func() { ra.Stack.ATM.VCIShut(600) }
		}},
		{"unreleased VC", "fabric holds 3 VCs, 2 provisioned", func(n *testbed.Net, _ *testbed.Router) func() {
			vc, err := n.Fabric.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
			if err != nil {
				t.Fatal(err)
			}
			return vc.Release
		}},
		{"connected application", "mh.rt application connections open: 1", func(_ *testbed.Net, ra *testbed.Router) func() {
			app := ra.Stack.Spawn("exporter", func(p *kern.Proc) {
				ks, err := p.Dial(ra.Stack.M.IP.Addr, signaling.SigPort)
				if err != nil {
					t.Error(err)
					return
				}
				m := sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: "held", NotifyPort: 6000}
				_ = ks.Send(m.AppendTo(nil))
				_, _ = ks.Recv() // SERVICE_REGS; the connection stays open
				p.SP.Park()
				ks.Close()
			})
			return app.SP.Unpark
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
			defer n.Close()
			release := row.plant(n, ra)
			n.RunUntil(2 * time.Second)
			if leaks := n.Audit(); !strings.Contains(strings.Join(leaks, "\n"), row.want) {
				t.Fatalf("audit reads %q, want it to name %q", leaks, row.want)
			}
			n.E.Schedule(0, release)
			n.RunUntil(2*time.Second + 2*n.CM.BindTimeout)
			if leaks := n.Audit(); leaks != nil {
				t.Fatalf("audit after release: %s", leaks)
			}
		})
	}
}
