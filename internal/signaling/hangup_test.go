package signaling_test

import (
	"strings"
	"testing"
	"time"
)

// TestVCIForConnAfterHangUp holds the window in which a one-shot
// VCI_FOR_CONN, written to an application that has just hung up, is
// lost — here with no process between a connection and sighost. It is
// the sweep's call, the client holding the circuit for 10 s, with the
// server killed at the point ucb.rt's sighost writes VCI_FOR_CONN. The
// server hangs up (its process dies, closing the notify connection it
// accepted the call on) in the same instant its sighost writes
// VCI_FOR_CONN there. The write goes out before the hang-up's FIN
// lands, so it succeeds, the message reaches no one, and sighost cannot
// tell: the window survives. KNOWN DEFECT: the call stays in
// wait_for_bind until its bind timer, 30 s on, releases it; then
// Net.Audit() is clean. A fix that ends the call at the hang-up fails
// the second check below, and must change this test.
func TestVCIForConnAfterHangUp(t *testing.T) {
	sc := callScenario("hold", false, 10*time.Second)
	ref := startRun(t, sc, nil, 0)
	ref.n.E.RunUntil(2 * time.Second)
	at := ref.wrote()
	ref.n.Close()
	if at == 0 || ref.accepted != 1 {
		t.Fatalf("reference run: VCI_FOR_CONN written at %v, %d accepted", at, ref.accepted)
	}
	r := startRun(t, sc, sweepFaults[1], at) // kill-server
	defer r.n.Close()
	r.n.E.RunUntil(2 * time.Second)
	if wrote := r.wrote(); wrote != at || r.accepted != 0 {
		t.Fatalf("VCI_FOR_CONN written at %v (hang-up at %v), %d accepted; want the write in the hang-up's instant, reaching no one", wrote, at, r.accepted)
	}
	if res := r.rb.Sig.SH.Residue(); !strings.Contains(res, "wait_bind=1") {
		t.Fatalf("known defect no longer shows: at 2 s, after the lost VCI_FOR_CONN, ucb.rt holds %q, want the call waiting for its bind", res)
	}
	r.n.E.RunUntil(2 * r.n.CM.BindTimeout)
	if leaks := r.n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
}
