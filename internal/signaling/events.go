package signaling

import (
	"fmt"

	"xunet/internal/obs"
	"xunet/internal/sigmsg"
)

// Event kinds sighost publishes to its machine's obs ring. Events carry the
// underlying protocol message in Event.Data (a sigmsg.Msg or kern.KMsg) and
// typed VCI/CallID/Cookie fields for filtering without string parsing.
const (
	EvAppRx    = "app.rx"    // application -> sighost RPC received
	EvAppTx    = "app.tx"    // sighost -> application reply sent
	EvPeerTx   = "peer.tx"   // sighost -> peer signaling message sent
	EvPeerRx   = "peer.rx"   // peer -> sighost signaling message received
	EvKernRx   = "kern.rx"   // kernel pseudo-device indication received
	EvTeardown = "teardown"  // call released
	EvBindOK   = "bind.ok"   // bind/connect authenticated, wait_for_bind cleared
	EvBindTime = "bind.fire" // wait_for_bind timer fired

	// Reliability and recovery events (rendered generically; the legacy
	// golden format above never sees them because reliability is opt-in).
	EvRelRetx    = "rel.retx"    // peer message retransmitted
	EvRelExhaust = "rel.exhaust" // retry budget exhausted
	EvRelDup     = "rel.dup"     // duplicate peer message suppressed
	EvPeerDead   = "peer.dead"   // keepalive miss threshold crossed
	EvCrash      = "crash"       // sighost crashed (state lost)
	EvRecover    = "recover"     // sighost recovered from journal
)

// teardownInfo rides in Event.Data for EvTeardown events.
type teardownInfo struct {
	origin bool
	reason cause
}

// traceOn reports whether any trace consumer is attached: the typed ring
// (per-component enable flag) or the legacy Trace callback. Call sites gate
// event construction on this so disabled tracing costs one nil-check and an
// atomic load.
func (sh *Sighost) traceOn() bool {
	return sh.Trace != nil || sh.tr.Enabled()
}

// emit timestamps and publishes one event. The ring keeps it typed and
// renders it with eventString when it is read; the legacy Trace callback,
// when set, gets the rendered line now.
func (sh *Sighost) emit(ev obs.Event) {
	ev.At = sh.env.Now()
	if sh.Trace != nil {
		ev.Text = eventString(ev)
		sh.Trace(ev.Text)
	}
	sh.tr.Emit(ev)
}

// emitMsg publishes a signaling-message event with typed identity fields.
func (sh *Sighost) emitMsg(kind, peer string, m sigmsg.Msg) {
	if !sh.traceOn() {
		return
	}
	sh.emit(obs.Event{
		Kind: kind, Peer: peer,
		VCI: uint32(m.VCI), CallID: m.CallID, Cookie: uint32(m.Cookie),
		Data: m,
	})
}

// eventString renders an event in the exact legacy Trace format that the
// Figure 3/4 golden tests (and any external log scrapers) depend on. New
// event kinds fall through to the generic obs.Event rendering.
func eventString(ev obs.Event) string {
	switch ev.Kind {
	case EvAppRx:
		return fmt.Sprintf("app->sighost %v", ev.Data)
	case EvAppTx:
		return fmt.Sprintf("sighost->app %v", ev.Data)
	case EvPeerTx:
		return fmt.Sprintf("peer->%s %v", ev.Peer, ev.Data)
	case EvPeerRx:
		return fmt.Sprintf("peer<-%s %v", ev.Peer, ev.Data)
	case EvKernRx:
		return fmt.Sprintf("kernel<-%s %v", ev.Peer, ev.Data)
	case EvTeardown:
		ti, _ := ev.Data.(teardownInfo)
		return fmt.Sprintf("teardown call=%d origin=%v reason=%q", ev.CallID, ti.origin, ti.reason.String())
	case EvBindOK:
		return fmt.Sprintf("bind ok vci=%d", ev.VCI)
	case EvBindTime:
		return fmt.Sprintf("bind timeout vci=%d call=%d", ev.VCI, ev.CallID)
	}
	// The generic form, without the component name: MGMT trace views
	// show these kinds as they read when text was rendered at publish,
	// before Emit stamped Comp.
	ev.Comp = ""
	return ev.String()
}
