package signaling

import (
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/sigmsg"
)

// held counts what sh's indexed tables hold, entry by entry: the calls
// in every issuer's index and the wait_for_bind and VCI_mapping slots.
func held(sh *Sighost) (calls, waitBind, vciMap int) {
	for range sh.calls.all() {
		calls++
	}
	for _, c := range sh.waitBind.tab {
		if c != nil {
			waitBind++
		}
	}
	for _, c := range sh.vciMap.tab {
		if c != nil {
			vciMap++
		}
	}
	return calls, waitBind, vciMap
}

// TestCrashEmptiesIndexedTables: with bound and granted calls on both
// sides, and one ended, a crash leaves every indexed table of the crashed sighost
// empty, origin and destination views alike, and a recovery rebuilds
// tables whose counts are the entries they hold.
func TestCrashEmptiesIndexedTables(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, 5*time.Second, &RelConfig{RTO: 100 * time.Millisecond, MaxRetries: 10}, true)
	exportEcho(t, shB, envB, "echo")
	cv, cc, sv, sc := openCall(t, w, shA, shB, envA, envB, "echo")
	bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)
	cv, cc, sv, sc = openCall(t, w, shA, shB, envA, envB, "echo")
	bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cv}) // ends a call on both sides
	w.pump()
	openCall(t, w, shA, shB, envA, envB, "echo")
	for _, sh := range []*Sighost{shA, shB} {
		if c, wb, vm := held(sh); c != 2 || wb != 1 || vm != 1 || sh.calls.len() != 2 || sh.waitBind.n != 1 || sh.vciMap.n != 1 {
			t.Fatalf("%s: precondition: held %d/%d/%d, counted %d/%d/%d", sh.env.Addr(), c, wb, vm, sh.calls.len(), sh.waitBind.n, sh.vciMap.n)
		}
	}
	for _, sh := range []*Sighost{shB, shA} {
		sh.Crash()
		if c, wb, vm := held(sh); c+wb+vm != 0 || sh.calls.len()+sh.waitBind.n+sh.vciMap.n != 0 || len(sh.outgoing)+len(sh.incoming) != 0 {
			t.Fatalf("%s: crash left %d calls, %d wait_for_bind, %d VCI_mapping entries held", sh.env.Addr(), c, wb, vm)
		}
	}
	shA.Recover()
	w.pump()
	if c, wb, vm := held(shA); c != shA.calls.len() || wb != shA.waitBind.n || vm != shA.vciMap.n || c != wb+vm {
		t.Fatalf("recovery holds %d/%d/%d, counts %d/%d/%d", c, wb, vm, shA.calls.len(), shA.waitBind.n, shA.vciMap.n)
	}
}

// TestKernelVCIBeyondTables: an indication naming a VCI at or past the
// end of a VCI-indexed slice is a bind to no call, refused, and a close
// of nothing, ignored.
func TestKernelVCIBeyondTables(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, 5*time.Second, nil, false)
	exportEcho(t, shB, envB, "echo")
	cv, _, _, _ := openCall(t, w, shA, shB, envA, envB, "echo") // grows wait_for_bind to hold cv
	shA.AllowPVC(cv + 2)
	for _, v := range []atm.VCI{cv + 1, cv + 3, atm.MaxVCI} { // the slices' lengths, and past them
		shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgBind, VCI: v, Cookie: 7})
		shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgClose, VCI: v})
	}
	snap := shA.Obs.Snapshot()
	if snap.Count("sighost.auth_failures") != 3 || snap.Count("sighost.ignored.new.close") != 3 || len(envA.disconnects) != 3 {
		t.Fatalf("auth failures %d, ignored closes %d, disconnects %v; want 3, 3 and three",
			snap.Count("sighost.auth_failures"), snap.Count("sighost.ignored.new.close"), envA.disconnects)
	}
}

// TestDedupWindowGapAndEpoch: the reliable channel delivers each
// sequence number of an epoch once, around a gap; acks what it drops as
// a duplicate; delivers a retransmission that arrives inside its
// sender's retry lifetime after 32 768 newer numbers; gives a gap up
// once that lifetime has passed; and starts a new epoch's numbers
// afresh.
func TestDedupWindowGapAndEpoch(t *testing.T) {
	cfg := RelConfig{RTO: 100 * time.Millisecond, MaxRetries: 10}
	w, _, shB, _, envB := pair(t, 5*time.Second, &cfg, false)
	life := cfg.life()
	if d := DefaultRelConfig().life(); life != 1100*time.Millisecond || d != 15750*time.Millisecond {
		t.Fatalf("retry lifetimes %v and %v (default), want 1.1 s and 15.75 s", life, d)
	}
	deliver := func(seq, epoch uint32) (delivered, acked bool) {
		peer, acks := shB.Obs.Snapshot().Count("sighost.msgs.peer"), envB.countSent(sigmsg.KindPeerAck)
		shB.peerMsg("a.rt", sigmsg.Msg{Kind: sigmsg.KindRelease, CallID: 9, Seq: seq, Epoch: epoch})
		return shB.Obs.Snapshot().Count("sighost.msgs.peer") > peer, envB.countSent(sigmsg.KindPeerAck) > acks
	}
	const span = 1 << 14
	for _, step := range []struct {
		at               time.Duration
		seq, epoch       uint32
		delivered, acked bool
	}{
		{0, 1, 1, true, true}, {0, 3, 1, true, true}, {0, 3, 1, false, true}, {0, 2, 1, true, true},
		{0, 1, 1, false, true}, {0, 2, 1, false, true}, {0, 5, 1, true, true},
		{-1, 0, 0, false, false}, // 6 … 5+2·span arrive, 4 is lost
		{life - 1, 4, 1, true, true}, {life - 1, 5 + 2*span, 1, false, true},
		{life, 7 + 2*span, 1, true, true}, {2*life - 1, 7 + 2*span, 1, false, true},
		{2 * life, 8 + 2*span, 1, true, true}, {2 * life, 6 + 2*span, 1, false, true},
		{2 * life, 1, 2, true, true}, {2 * life, 2, 1, false, false},
	} {
		if step.at < 0 {
			for seq := uint32(6); seq <= 5+2*span; seq++ {
				shB.peerMsg("a.rt", sigmsg.Msg{Kind: sigmsg.KindRelease, CallID: 9, Seq: seq, Epoch: 1})
			}
			envB.sent = envB.sent[:0]
			continue
		}
		w.now = step.at
		if d, a := deliver(step.seq, step.epoch); d != step.delivered || a != step.acked {
			t.Fatalf("seq %d of epoch %d at %v: delivered %v, acked %v; want %v, %v", step.seq, step.epoch, step.at, d, a, step.delivered, step.acked)
		}
	}
}
