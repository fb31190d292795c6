package testbed_test

import (
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
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
	for _, r := range []*testbed.Router{ra, rb} {
		if msg := testbed.Quiesced(r); msg != "" {
			t.Fatal(msg)
		}
	}
	rep := n.Snapshot()
	if rep.ActiveVCs != 2 {
		t.Fatalf("active VCs = %d", rep.ActiveVCs)
	}
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

func TestReportDetectsLeak(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "echo", 6000)
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		// Open and never bind: until the bind timer fires, wait_for_bind
		// holds state and the report must say so.
		_, _ = ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
		p.SP.Park()
	})
	n.E.RunUntil(2 * time.Second) // established, not bound, timer pending
	if testbed.Quiesced(ra) == "" && testbed.Quiesced(rb) == "" {
		t.Fatal("Quiesced claims drained while a bind is pending")
	}
	n.E.Shutdown()
}
