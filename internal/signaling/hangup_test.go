package signaling_test

import (
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// hangUpRun is one call to an echo server on ucb.rt whose client holds
// the circuit for 10 s; killAt, when positive, kills the server then.
// It reports when ucb.rt's sighost wrote VCI_FOR_CONN to the server.
func hangUpRun(t *testing.T, killAt time.Duration) (n *testbed.Net, rb *testbed.Router, srv *testbed.EchoServer, wrote time.Duration) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	rb.Sig.SH.Trace = func(line string) {
		if strings.HasPrefix(line, "sighost->app VCI_FOR_CONN") {
			wrote = n.E.Now()
		}
	}
	srv = testbed.StartEchoServer(rb, "echo", 6000)
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 1, 0,
			func(p *kern.Proc) { p.SP.Sleep(10 * time.Second) })
	})
	if killAt > 0 {
		n.E.Schedule(killAt, srv.Kill)
	}
	n.E.RunUntil(2 * time.Second)
	return n, rb, srv, wrote
}

// TestVCIForConnAfterHangUp holds the window in which a one-shot
// VCI_FOR_CONN, written to an application that has just hung up, is
// lost — here with no process between a connection and sighost. The
// server hangs up (its process dies, closing the notify connection it
// accepted the call on) in the same instant its sighost writes
// VCI_FOR_CONN there. The write goes out before the hang-up's FIN
// lands, so it succeeds, the message reaches no one, and sighost cannot
// tell: the window survives. KNOWN DEFECT: the call stays in
// wait_for_bind until its bind timer, 30 s on, releases it; then
// Net.Audit() is clean. A fix that ends the call at the hang-up fails
// the second check below, and must change this test.
func TestVCIForConnAfterHangUp(t *testing.T) {
	_, _, srv, at := hangUpRun(t, 0)
	if at == 0 || srv.Accepted != 1 {
		t.Fatalf("reference run: VCI_FOR_CONN written at %v, %d accepted", at, srv.Accepted)
	}
	n, rb, srv, wrote := hangUpRun(t, at)
	if wrote != at || srv.Accepted != 0 {
		t.Fatalf("VCI_FOR_CONN written at %v (hang-up at %v), %d accepted; want the write in the hang-up's instant, reaching no one", wrote, at, srv.Accepted)
	}
	if res := rb.Sig.SH.Residue(); !strings.Contains(res, "wait_bind=1") {
		t.Fatalf("known defect no longer shows: at 2 s, after the lost VCI_FOR_CONN, ucb.rt holds %q, want the call waiting for its bind", res)
	}
	n.E.RunUntil(2 * n.CM.BindTimeout)
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
}
