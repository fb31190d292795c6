package signaling_test

import (
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// TestCrossCallsSameID is the direct regression test for the RELEASE
// ambiguity documented in DESIGN.md §7: routers A and B each originate
// their *first* call (callID 1 on both sides) toward the other, at the
// same time. Tearing one call down must not disturb the other — without
// the FromOrigin flag on RELEASE, B would tear down its own outgoing
// call when A releases A's.
func TestCrossCallsSameID(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	testbed.StartEchoServer(ra, "echo-a", 6000)
	srvB := testbed.StartEchoServer(rb, "echo-b", 6000)

	// A's client: short call, closes early (this RELEASE once broke B's
	// call of the same ID).
	var resA testbed.CallResult
	ra.Stack.Spawn("client-a", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		resA = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo-b", 7000, "", 1, 0, func(p *kern.Proc) {
			p.SP.Sleep(500 * time.Millisecond)
		})
	})
	// B's client: long call that must survive A's teardown and keep
	// passing data afterwards.
	var lateSendErr error
	var resB testbed.CallResult
	rb.Stack.Spawn("client-b", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		conn, err := rb.Lib.OpenConnection(p, "mh.rt", "echo-a", 7000, "", "")
		if err != nil {
			resB.Err = err
			return
		}
		resB.OK = true
		sock, _ := rb.Stack.PF.Socket(p)
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			resB.Err = err
			return
		}
		p.SP.Sleep(100 * time.Millisecond)
		_ = sock.Send([]byte("before"))
		// Wait until well after A's call has been torn down.
		p.SP.Sleep(3 * time.Second)
		lateSendErr = sock.Send([]byte("after A's teardown"))
		p.SP.Sleep(200 * time.Millisecond)
		sock.Close()
	})
	n.E.RunUntil(2 * n.CM.BindTimeout)
	if resA.Err != nil || !resA.OK {
		t.Fatalf("call A: %+v", resA)
	}
	if resB.Err != nil || !resB.OK {
		t.Fatalf("call B: %+v", resB)
	}
	if lateSendErr != nil {
		t.Fatalf("call B was collaterally torn down by call A's RELEASE: %v", lateSendErr)
	}
	if srvB.Received != 1 {
		t.Fatalf("server B received %d", srvB.Received)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestBidirectionalStorm runs storms in both directions at once — the
// sustained version of the cross-call scenario.
func TestBidirectionalStorm(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	testbed.StartEchoServer(ra, "echo-a", 6000)
	testbed.StartEchoServer(rb, "echo-b", 6000)
	n.E.RunUntil(time.Second)
	resAB := testbed.CallStorm(ra, "ucb.rt", "echo-b", testbed.StormConfig{
		Count: 30, Hold: time.Second, BasePort: 20000,
	})
	resBA := testbed.CallStorm(rb, "mh.rt", "echo-a", testbed.StormConfig{
		Count: 30, Hold: time.Second, BasePort: 21000,
	})
	n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
	if resAB.Succeeded != 30 || resBA.Succeeded != 30 {
		t.Fatalf("succeeded %d/%d", resAB.Succeeded, resBA.Succeeded)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}
