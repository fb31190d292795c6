package signaling

import (
	"encoding/json"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
)

// TestTracerEnableAndSubscribe drives calls through sighost's event
// history: nothing is kept while tracing is off; while it is on each
// event is stamped Comp "sighost" and a Seq one past the last, and read
// back rendered; the ring wraps to the newest EventRingSize, and a
// longer read returns just those.
func TestTracerEnableAndSubscribe(t *testing.T) {
	w, shA, shB, envA, envB := newBenchPair()
	driveOneCall(t, w, shA, shB, envA, envB)
	if evs := shA.Events(EventRingSize); evs != nil {
		t.Fatalf("tracing off, yet the ring holds %d events", len(evs))
	}

	shA.EnableTrace(true)
	var evs []Event
	for calls := 0; len(evs) == 0 || evs[0].Seq == 0; calls++ {
		if calls == 100 {
			t.Fatalf("100 calls never wrapped the ring: it holds %d events", len(evs))
		}
		driveOneCall(t, w, shA, shB, envA, envB)
		evs = shA.Events(EventRingSize + 100)
	}
	if len(evs) != EventRingSize {
		t.Fatalf("a wrapped ring holds %d events, want %d", len(evs), EventRingSize)
	}
	for i, ev := range evs {
		if ev.Comp != "sighost" || ev.Text == "" || ev.Seq != evs[0].Seq+uint64(i) {
			t.Fatalf("event %d of %d: %+v", i, len(evs), ev)
		}
	}
	last := evs[len(evs)-1]
	if last.Seq+1 != shA.evSeq {
		t.Fatalf("the newest event has Seq %d, yet %d were kept", last.Seq, shA.evSeq)
	}
	if got := shA.Events(1); len(got) != 1 || got[0].Seq != last.Seq {
		t.Fatalf("Events(1) = %+v, want Seq %d", got, last.Seq)
	}

	shA.EnableTrace(false)
	driveOneCall(t, w, shA, shB, envA, envB)
	if got := shA.Events(1); got[0].Seq != last.Seq {
		t.Fatalf("tracing off again, yet Seq moved from %d to %d", last.Seq, got[0].Seq)
	}
}

// TestEventHistoryWrapAndLast fills sighost's history past EventRingSize:
// it keeps the newest EventRingSize events, numbered by a Seq that counts
// every event kept, and an overlong read returns just those.
func TestEventHistoryWrapAndLast(t *testing.T) {
	_, sh, _, _, _ := newBenchPair()
	sh.EnableTrace(true)
	const total = EventRingSize + 10
	for i := 0; i < total; i++ {
		sh.emit(Event{Kind: evBindTime, CallID: uint32(i)})
	}
	if sh.evSeq != total {
		t.Fatalf("Seq counter = %d, want %d", sh.evSeq, total)
	}
	evs := sh.Events(4)
	if len(evs) != 4 {
		t.Fatalf("Events(4) = %d events", len(evs))
	}
	for i, ev := range evs {
		if want := uint32(total - 4 + i); ev.CallID != want {
			t.Fatalf("event %d: call=%d want %d", i, ev.CallID, want)
		}
		if ev.Seq != uint64(total-4+i) {
			t.Fatalf("event %d: seq=%d", i, ev.Seq)
		}
	}
	if got := sh.Events(total + 100); len(got) != EventRingSize || got[0].Seq != total-EventRingSize {
		t.Fatalf("overlong Events = %d events from Seq %d", len(got), got[0].Seq)
	}
}

// clockEnv stops a benchEnv's clock at now.
type clockEnv struct {
	*benchEnv
	now time.Duration
}

func (e clockEnv) Now() time.Duration { return e.now }

// publishEach publishes one event of each of the 14 kinds, the way its
// call site does.
func publishEach(sh *Sighost) {
	req := sigmsg.Msg{Kind: sigmsg.KindConnectReq, Service: "echo", Dest: "ucb.rt", NotifyPort: 7000, QoS: "bw=1M", PID: 9}
	grant := sigmsg.Msg{Kind: sigmsg.KindVCIForConn, VCI: 33, Cookie: 4242, CallID: 7}
	setup := sigmsg.Msg{Kind: sigmsg.KindSetup, Service: "echo", Dest: "ucb.rt", Src: "mh.rt", CallID: 7, VCI: 40, Seq: 3, Epoch: 1}
	ack := sigmsg.Msg{Kind: sigmsg.KindSetupAck, CallID: 7, VCI: 33, Cookie: 17}
	done := sigmsg.Msg{Kind: sigmsg.KindConnectDone, CallID: 7, VCI: 33, Seq: 4}
	key := callKey{peer: "ucb.rt", id: 7, origin: true}
	k := kern.KMsg{Kind: kern.MsgBind, VCI: 33, Cookie: 4242, PID: 9}
	sh.emitMsg(evAppRx, "", &req)
	sh.emitMsg(evAppTx, "", &grant)
	sh.emitMsg(evPeerTx, "ucb.rt", &setup)
	sh.emitMsg(evPeerRx, "ucb.rt", &ack)
	sh.emit(Event{Kind: evKernRx, ip: memnet.IP4(10, 2, 0, 1), VCI: uint32(k.VCI), Cookie: uint32(k.Cookie), kmsg: k})
	sh.emitTr(evTeardown, Transition{Call: key, From: callBound, To: callReleased, VCI: 33, Cause: cause{code: causeSocketClosed}, At: time.Second})
	sh.emitTr(evBindOK, Transition{Call: key, From: callEstablished, To: callBound, VCI: 33, At: time.Second})
	sh.emitTr(evBindTime, Transition{Call: key, From: callEstablished, To: callReleased, VCI: 33, Cause: cause{code: causeBindTimeout}, At: time.Second})
	sh.emit(Event{Kind: evRelRetx, peer: "ucb.rt", CallID: setup.CallID, msg: setup})
	sh.emit(Event{Kind: evRelExhaust, peer: "ucb.rt", CallID: setup.CallID, msg: setup})
	sh.emit(Event{Kind: evRelDup, peer: "ucb.rt", CallID: done.CallID, msg: done})
	sh.emit(Event{Kind: evPeerDead, peer: "ucb.rt"})
	sh.emit(Event{Kind: evCrash})
	sh.emit(Event{Kind: evRecover})
}

// TestEventRendering renders one event of each kind to its text (the
// Trace line and Events' Text) and its JSON, which carries the nine
// wire fields and none of the payload. Each expected string is what the
// same event rendered to when the history boxed its payload.
func TestEventRendering(t *testing.T) {
	want := []struct{ text, json string }{
		{"app->sighost CONNECT_REQ svc=echo dest=ucb.rt qos=bw=1M",
			`{"seq":0,"at_ns":1234567890,"comp":"sighost","kind":"app.rx","text":"app-\u003esighost CONNECT_REQ svc=echo dest=ucb.rt qos=bw=1M"}`},
		{"sighost->app VCI_FOR_CONN cookie=4242 vci=33 call=7",
			`{"seq":1,"at_ns":1234567890,"comp":"sighost","kind":"app.tx","vci":33,"call":7,"cookie":4242,"text":"sighost-\u003eapp VCI_FOR_CONN cookie=4242 vci=33 call=7"}`},
		{"peer->ucb.rt SETUP svc=echo dest=ucb.rt vci=40 call=7",
			`{"seq":2,"at_ns":1234567890,"comp":"sighost","kind":"peer.tx","vci":40,"call":7,"peer":"ucb.rt","text":"peer-\u003eucb.rt SETUP svc=echo dest=ucb.rt vci=40 call=7"}`},
		{"peer<-ucb.rt SETUP_ACK cookie=17 vci=33 call=7",
			`{"seq":3,"at_ns":1234567890,"comp":"sighost","kind":"peer.rx","vci":33,"call":7,"cookie":17,"peer":"ucb.rt","text":"peer\u003c-ucb.rt SETUP_ACK cookie=17 vci=33 call=7"}`},
		{"kernel<-10.2.0.1 BIND_IND{vci=33 cookie=4242 pid=9}",
			`{"seq":4,"at_ns":1234567890,"comp":"sighost","kind":"kern.rx","vci":33,"cookie":4242,"peer":"10.2.0.1","text":"kernel\u003c-10.2.0.1 BIND_IND{vci=33 cookie=4242 pid=9}"}`},
		{`teardown call=7 origin=true reason="socket closed"`,
			`{"seq":5,"at_ns":1234567890,"comp":"sighost","kind":"teardown","vci":33,"call":7,"text":"teardown call=7 origin=true reason=\"socket closed\""}`},
		{"bind ok vci=33",
			`{"seq":6,"at_ns":1234567890,"comp":"sighost","kind":"bind.ok","vci":33,"call":7,"text":"bind ok vci=33"}`},
		{"bind timeout vci=33 call=7",
			`{"seq":7,"at_ns":1234567890,"comp":"sighost","kind":"bind.fire","vci":33,"call":7,"text":"bind timeout vci=33 call=7"}`},
		{"[1.23456789s] .rel.retx vci=0 call=7 SETUP svc=echo dest=ucb.rt vci=40 call=7",
			`{"seq":8,"at_ns":1234567890,"comp":"sighost","kind":"rel.retx","call":7,"peer":"ucb.rt","text":"[1.23456789s] .rel.retx vci=0 call=7 SETUP svc=echo dest=ucb.rt vci=40 call=7"}`},
		{"[1.23456789s] .rel.exhaust vci=0 call=7 SETUP svc=echo dest=ucb.rt vci=40 call=7",
			`{"seq":9,"at_ns":1234567890,"comp":"sighost","kind":"rel.exhaust","call":7,"peer":"ucb.rt","text":"[1.23456789s] .rel.exhaust vci=0 call=7 SETUP svc=echo dest=ucb.rt vci=40 call=7"}`},
		{"[1.23456789s] .rel.dup vci=0 call=7 CONNECT_DONE vci=33 call=7",
			`{"seq":10,"at_ns":1234567890,"comp":"sighost","kind":"rel.dup","call":7,"peer":"ucb.rt","text":"[1.23456789s] .rel.dup vci=0 call=7 CONNECT_DONE vci=33 call=7"}`},
		{"[1.23456789s] .peer.dead vci=0 call=0 <nil>",
			`{"seq":11,"at_ns":1234567890,"comp":"sighost","kind":"peer.dead","peer":"ucb.rt","text":"[1.23456789s] .peer.dead vci=0 call=0 \u003cnil\u003e"}`},
		{"[1.23456789s] .crash vci=0 call=0 <nil>",
			`{"seq":12,"at_ns":1234567890,"comp":"sighost","kind":"crash","text":"[1.23456789s] .crash vci=0 call=0 \u003cnil\u003e"}`},
		{"[1.23456789s] .recover vci=0 call=0 <nil>",
			`{"seq":13,"at_ns":1234567890,"comp":"sighost","kind":"recover","text":"[1.23456789s] .recover vci=0 call=0 \u003cnil\u003e"}`},
	}
	_, _, _, envA, _ := newBenchPair()
	sh := New(clockEnv{envA, 1234567890}, CostModel{})
	sh.EnableTrace(true)
	var lines []string
	sh.Trace = func(l string) { lines = append(lines, l) }
	publishEach(sh)
	evs := sh.Events(EventRingSize)
	if len(evs) != len(want) || len(lines) != len(want) {
		t.Fatalf("%d events and %d Trace lines, want %d", len(evs), len(lines), len(want))
	}
	for i, ev := range evs {
		js, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if lines[i] != want[i].text || ev.Text != want[i].text || string(js) != want[i].json {
			t.Errorf("%s renders\n  line %s\n  text %s\n  json %s\nwant\n  %s\n  %s", ev.Kind, lines[i], ev.Text, js, want[i].text, want[i].json)
		}
	}
}

// TestEnabledPublishAllocs: with the ring on and full, publishing a
// message, a kernel indication and a teardown allocates nothing.
func TestEnabledPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, sh, _, _, _ := newBenchPair()
	sh.EnableTrace(true)
	for sh.events.Len() < EventRingSize {
		publishEach(sh)
	}
	m := sigmsg.Msg{Kind: sigmsg.KindSetup, Service: "echo", Dest: "ucb.rt", Src: "mh.rt", CallID: 7}
	ip, k := memnet.IP4(10, 2, 0, 1), kern.KMsg{Kind: kern.MsgClose, VCI: 33}
	tr := Transition{Call: callKey{peer: "ucb.rt", id: 7}, From: callBound, To: callReleased, VCI: 33, Cause: cause{code: causeSocketClosed}}
	got := testing.AllocsPerRun(100, func() {
		sh.emitMsg(evPeerTx, "ucb.rt", &m)
		sh.emit(Event{Kind: evKernRx, ip: ip, VCI: uint32(k.VCI), Cookie: uint32(k.Cookie), kmsg: k})
		sh.emitTr(evTeardown, tr)
	})
	if got != 0 {
		t.Fatalf("enabled publishing allocates %.1f times per message, indication and teardown, want 0", got)
	}
}

// BenchmarkEventRingOverhead/disabled is a `make detgate` gate, like
// the trace, faults and tseries ones: with tracing off an event call
// site costs under 5 ns (one nil check and one bool load), so the
// events compiled into sighost's paths cannot skew clean-path numbers.
// enabled times a message event kept in a full ring.
func BenchmarkEventRingOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		_, sh, _, _, _ := newBenchPair()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sh.traceOn() {
				sh.emit(Event{Kind: "never"})
			}
		}
		b.StopTimer()
		// Enforce the budget only on a real measurement run; the N=1
		// discovery run is all fixed overhead.
		if avg := float64(b.Elapsed().Nanoseconds()) / float64(b.N); b.N >= 1_000_000 && avg > 5 {
			b.Fatalf("disabled event call site costs %.1f ns, budget is 5 ns", avg)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		_, sh, _, _, _ := newBenchPair()
		sh.EnableTrace(true)
		m := sigmsg.Msg{Kind: sigmsg.KindSetup, Service: "echo", Dest: "ucb.rt", Src: "mh.rt", CallID: 7}
		for range EventRingSize {
			sh.emitMsg(evPeerTx, "ucb.rt", &m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh.emitMsg(evPeerTx, "ucb.rt", &m)
		}
	})
}
