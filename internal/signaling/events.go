package signaling

import (
	"fmt"
	"slices"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/trace"
)

// Event kinds sighost publishes to its event history. Each Event holds
// its payload by value (the message, the kernel indication or the
// Transition) beside typed VCI/CallID/Cookie fields for filtering
// without string parsing.
const (
	evAppRx    = "app.rx"    // application -> sighost RPC received
	evAppTx    = "app.tx"    // sighost -> application reply sent
	evPeerTx   = "peer.tx"   // sighost -> peer signaling message sent
	evPeerRx   = "peer.rx"   // peer -> sighost signaling message received
	evKernRx   = "kern.rx"   // kernel pseudo-device indication received
	evTeardown = "teardown"  // call released (with its Transition)
	evBindOK   = "bind.ok"   // bind/connect authenticated, wait_for_bind cleared
	evBindTime = "bind.fire" // wait_for_bind timer fired

	// Reliability and recovery events (rendered generically; the legacy
	// golden format above never sees them because reliability is opt-in).
	evRelRetx    = "rel.retx"    // peer message retransmitted
	evRelExhaust = "rel.exhaust" // retry budget exhausted
	evRelDup     = "rel.dup"     // duplicate peer message suppressed
	evPeerDead   = "peer.dead"   // keepalive miss threshold crossed
	evCrash      = "crash"       // sighost crashed (state lost)
	evRecover    = "recover"     // sighost recovered from journal
)

// EventRingSize bounds sighost's event history. Old events are dropped;
// Seq stays monotonic so consumers can detect loss.
const EventRingSize = 256

// Event is one entry of sighost's event history. The history holds the
// payload by value: the message of app, peer and rel.* events, the
// kernel indication and the machine that sent it for kern.rx, the
// Transition of teardown, bind.ok and bind.fire. Comp, Peer and Text are
// rendered when the event is read (Events); JSON carries only the
// exported fields.
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at_ns"` // sim (or daemon-relative) timestamp
	Comp   string        `json:"comp"`
	Kind   string        `json:"kind"`
	VCI    uint32        `json:"vci,omitempty"`
	CallID uint32        `json:"call,omitempty"`
	Cookie uint32        `json:"cookie,omitempty"`
	Peer   string        `json:"peer,omitempty"`
	Text   string        `json:"text,omitempty"`

	peer atm.Addr      // the signaling peer of peer.*, rel.* and peer.dead
	msg  sigmsg.Msg    // app.*, peer.*, rel.*
	kmsg kern.KMsg     // kern.rx
	ip   memnet.IPAddr // the machine that sent kmsg
	tr   Transition    // teardown, bind.ok, bind.fire
}

// causeCode names why a call ends.
type causeCode uint8

const (
	causeOther causeCode = iota // a reason this sighost does not name
	causeSocketClosed
	causeClosedUnused
	causeCanceled
	causeBindTimeout
	causeAuthFailed
	causeClientExit
	causeClientGone
	causeRetxExhausted
	causePeerDead
	causeRestart
	causeUnreachable
	causeAdmission
	causeServerGone
	causeRejected
)

// cause is why a call ends. A cause this sighost decides is its code
// alone, plus an error's detail where the client is told one. A reason
// it is told (a peer's RELEASE or SETUP_REJ, a server's REJECT_CONN) is
// parsed once, at receipt: via is the message that carried it and text
// the reason as received, so one it does not name rides verbatim and
// every wire byte is what it was.
type cause struct {
	code causeCode
	via  sigmsg.Kind
	text string
}

// restarted is the cause of every state change Recover makes: the calls
// it rebuilds, and the ends of those it cannot keep.
var restarted = cause{code: causeRestart}

// heard parses a reason the message via carried into the cause it
// names; IndexFunc's -1 for a reason no row names is causeOther.
func heard(via sigmsg.Kind, reason string) cause {
	i := slices.IndexFunc(endings[1:], func(e ending) bool { return e.text == reason })
	return cause{code: causeCode(i + 1), via: via, text: reason}
}

// String renders the cause for the wire, the event ring and a waiting
// client.
func (why cause) String() string {
	if why.code == causeOther {
		return why.text
	}
	return endings[why.code].text
}

// ending is what why does to the call it ends.
func (why cause) ending() *ending {
	if e := heardEndings[why.via]; e != nil {
		return e
	}
	return &endings[why.code]
}

// rejects reports whether a SETUP_REJ, sent or heard, answers the call
// why ends: that ends its state's span, which a teardown leaves open.
func (why cause) rejects() bool {
	return why.via == sigmsg.KindSetupRej || why.ending().peer == sigmsg.KindSetupRej
}

// An ending is what a cause does to the call it ends; end applies it.
type ending struct {
	text   string      // the cause's name
	status string      // the origin's trace status ("" for the named cause's); REJECT, TIMEOUT and DEATH dump to the flight recorder
	count  uint8       // the sigCounters.ended slot bumped besides torn
	torn   bool        // a teardown: torn counted, TeardownLogging charged, retransmits dropped, the peer told last
	peer   sigmsg.Kind // RELEASE or SETUP_REJ to the peer, or nothing
	notify bool        // an origin's client gets CONN_FAILED first: client, then the cause's text
	client string
}

// endings are the causes this sighost decides.
var endings = [...]ending{
	causeOther:         {status: trace.StatusFailed},
	causeSocketClosed:  {text: "socket closed", status: trace.StatusOK, torn: true, peer: sigmsg.KindRelease},
	causeClosedUnused:  {text: "socket closed before use", status: trace.StatusOK, torn: true, peer: sigmsg.KindRelease},
	causeCanceled:      {text: "canceled by client", status: trace.StatusCanceled, count: countCanceled, torn: true, peer: sigmsg.KindRelease},
	causeBindTimeout:   {text: "bind timeout", status: trace.StatusTimeout, torn: true, peer: sigmsg.KindRelease},
	causeAuthFailed:    {text: "cookie authentication failed", status: trace.StatusFailed, torn: true, peer: sigmsg.KindRelease},
	causeClientExit:    {text: "client terminated", status: trace.StatusDeath, torn: true, peer: sigmsg.KindRelease},
	causeClientGone:    {text: "client unreachable", status: trace.StatusDeath, count: countFailed, torn: true, peer: sigmsg.KindRelease},
	causeRetxExhausted: {text: "retransmit budget exhausted", status: trace.StatusTimeout, count: countFailed, torn: true, notify: true, client: "signaling retransmit budget exhausted"},
	causePeerDead:      {text: "peer signaling entity dead", status: trace.StatusDeath, count: countFailed, torn: true, notify: true, client: "peer signaling entity dead"},
	causeRestart:       {text: "lost in signaling restart", status: trace.StatusDeath, count: countFailed, torn: true, peer: sigmsg.KindRelease, notify: true, client: "signaling entity restarted"},
	causeUnreachable:   {text: "destination unreachable", status: trace.StatusFailed, count: countFailed, notify: true, client: "destination unreachable: "},
	causeAdmission:     {text: "admission failed", status: trace.StatusFailed, count: countFailed, peer: sigmsg.KindRelease, notify: true, client: "network admission failed: "},
	causeServerGone:    {text: "server unreachable", status: trace.StatusFailed, peer: sigmsg.KindSetupRej},
	causeRejected:      {text: "rejected by server", status: trace.StatusFailed, count: countRejected, peer: sigmsg.KindSetupRej},
}

// What a reason someone else decided does here depends on the message
// that carried it, not on the reason: a peer's RELEASE tears this view
// down without answering, a peer's SETUP_REJ fails the call and tells the
// client the reason, and a server's REJECT_CONN goes on to the origin.
var heardEndings = [256]*ending{
	sigmsg.KindRelease:    {torn: true},
	sigmsg.KindSetupRej:   {status: trace.StatusReject, count: countFailed, notify: true},
	sigmsg.KindRejectConn: {count: countRejected, peer: sigmsg.KindSetupRej},
}

// Transition is one state change of one call. transition returns one
// for every change but the last, and end makes that one (To
// callReleased), stamped when end begins.
type Transition struct {
	Call     callKey
	From, To callState
	VCI      atm.VCI // the call's VCI, 0 until one is granted
	// Cause is why the call ended, on the Released record. Before that it
	// is the zero cause, or restarted for a call Recover rebuilt.
	Cause cause
	At    time.Duration // env.Now
}

// stages says what each state means beyond its list (DESIGN.md §12 has
// the table): its name (MGMT calls view, ignored-input counters), the
// lifecycle span a call holds open in it, the histogram of its stay when
// the call moves on, and its timer, armed on entry for the cost model's
// timeout, labeled timer for the profiler; run out, it is the input
// onTimeout, which ends the call with expiry.
var stages = [...]struct {
	name, span, hist string
	timeout          func(*CostModel) time.Duration
	timer            string
	expiry           causeCode
}{
	callNew:         {name: "new"},
	callRequested:   {name: "requested", span: "process", hist: "sighost.setup.process"},
	callSetupSent:   {name: "setup_sent", span: "peer", hist: "sighost.setup.peer"},
	callProgramming: {name: "programming", span: "program", hist: "sighost.setup.program"},
	callWaitServer:  {name: "wait_server", span: "dest.accept"},
	callAccepted:    {name: "accepted"},
	// "sighost keeps a per-VCI timer that is loaded when a VCI is handed
	// to an application. If no bind (resp. connect) indication is
	// received before timeout, the connection is torn down."
	callEstablished: {name: "established", span: "wait_bind", hist: "sighost.bind.latency",
		timeout: func(cm *CostModel) time.Duration { return cm.BindTimeout }, timer: "bind.timeout", expiry: causeBindTimeout},
	callBound:    {name: "bound"},
	callReleased: {name: "released"},
}

// callInput is what reaches a call (protocol's rows): its application's
// or peer's message, a kernel indication (bind and connect are one), its
// state's timer, a dial's result, or the reliable channel giving up.
type callInput uint8

const (
	onConnectReq callInput = iota
	onCancelReq
	onAcceptConn
	onRejectConn
	onSetup
	onSetupAck
	onSetupRej
	onConnectDone
	onRelease
	onBind       // with its call's cookie, or to a VCI no call holds
	onForgedBind // with another cookie
	onClose
	onExit
	onTimeout
	onRetxExhausted
	onPeerDead
	onServerDialed
	onServerUnreachable
	onClientUnreachable // the dial handing the client its VCI failed
)

// callInputs names the inputs in the ignored-input counters.
var callInputs = [...]string{"connect_req", "cancel_req", "accept_conn", "reject_conn", "setup", "setup_ack", "setup_rej",
	"connect_done", "release", "bind", "forged_bind", "close", "exit", "timeout", "retx_exhausted", "peer_dead",
	"server_dialed", "server_unreachable", "client_unreachable"}

// A cell is what one input does to a call in one state: do's protocol
// work, which leaves the call in to unless it ends it, or end, a cause
// to end it with. Neither (ign) drops the input, stale, a duplicate or
// unable to reach that state, counted in sighost.ignored.<state>.<input>.
type cell struct {
	do  func(*Sighost, *call, *input)
	to  callState
	end causeCode
}

var (
	ign       = &cell{}
	connect   = &cell{do: (*Sighost).connectReq, to: callSetupSent}
	setup     = &cell{do: (*Sighost).peerSetup, to: callWaitServer}
	noCookie  = &cell{do: (*Sighost).unknownCookie}
	refuse    = &cell{do: (*Sighost).authFailed}
	unwanted  = &cell{do: (*Sighost).closeDialed}
	dialed    = &cell{do: (*Sighost).serverDialed, to: callWaitServer}
	accept    = &cell{do: (*Sighost).acceptConn, to: callAccepted}
	acked     = &cell{do: (*Sighost).peerSetupAck, to: callEstablished}
	done      = &cell{do: (*Sighost).peerConnectDone, to: callEstablished}
	bound     = &cell{do: (*Sighost).bindOK, to: callBound}
	cancelled = &cell{do: (*Sighost).cancelReq, to: callReleased}
	heardEnd  = &cell{do: (*Sighost).heardEnd, to: callReleased}
	forged    = &cell{do: (*Sighost).authFailed, to: callReleased}
	expired   = &cell{do: (*Sighost).expire, to: callReleased}
	closed    = &cell{end: causeSocketClosed, to: callReleased}
	unused    = &cell{end: causeClosedUnused, to: callReleased}
	exited    = &cell{end: causeClientExit, to: callReleased}
	exhausted = &cell{end: causeRetxExhausted, to: callReleased}
	peerGone  = &cell{end: causePeerDead, to: callReleased}
	noServer  = &cell{end: causeServerGone, to: callReleased}
	noClient  = &cell{end: causeClientGone, to: callReleased}
)

// protocol is sighost's protocol (DESIGN.md §12 renders it): the cell
// each input runs in each state. Column new is the lookup miss, where
// CONNECT_REQ and SETUP make a call. No input finds one requested,
// programming or released, each lasting only inside a cell. init fills
// the table, as its cells reach back into step.
var protocol [len(callInputs)][len(stages)]*cell

func init() {
	protocol = [len(callInputs)][len(stages)]*cell{
		// new, requested, setup_sent, programming, wait_server, accepted, established, bound, released
		onConnectReq:        {connect, ign, ign, ign, ign, ign, ign, ign, ign},
		onCancelReq:         {noCookie, ign, cancelled, ign, ign, ign, ign, ign, ign},
		onAcceptConn:        {noCookie, ign, ign, ign, accept, ign, ign, ign, ign},
		onRejectConn:        {noCookie, ign, ign, ign, heardEnd, heardEnd, ign, ign, ign},
		onSetup:             {setup, ign, ign, ign, ign, ign, ign, ign, ign},
		onSetupAck:          {ign, ign, acked, ign, ign, ign, ign, ign, ign},
		onSetupRej:          {ign, ign, heardEnd, ign, ign, ign, heardEnd, heardEnd, ign},
		onConnectDone:       {ign, ign, ign, ign, ign, done, ign, ign, ign},
		onRelease:           {ign, ign, heardEnd, ign, heardEnd, heardEnd, heardEnd, heardEnd, ign},
		onBind:              {refuse, ign, ign, ign, ign, ign, bound, ign, ign},
		onForgedBind:        {ign, ign, ign, ign, ign, ign, forged, forged, ign},
		onClose:             {ign, ign, ign, ign, ign, ign, unused, closed, ign},
		onExit:              {ign, ign, exited, ign, ign, ign, ign, ign, ign},
		onTimeout:           {ign, ign, ign, ign, ign, ign, expired, ign, ign},
		onRetxExhausted:     {ign, ign, exhausted, ign, ign, exhausted, exhausted, exhausted, ign},
		onPeerDead:          {ign, ign, peerGone, ign, peerGone, peerGone, peerGone, peerGone, ign},
		onServerDialed:      {unwanted, ign, ign, ign, dialed, ign, ign, ign, ign},
		onServerUnreachable: {ign, ign, ign, ign, noServer, ign, ign, ign, ign},
		onClientUnreachable: {ign, ign, ign, ign, ign, ign, noClient, ign, ign},
	}
}

// publish derives everything a transition means outside the lists and
// spans from its record (DESIGN.md §12 has the table): the lifecycle
// counters, the bind.ok, bind.fire and teardown events, the stage
// histograms, and the hook. Only a cause this sighost decides is a bind
// timeout or a restart; a rebuilt call Recover ends while it holds a VCI
// had its bind deadline pass in the outage. The recovery counters stay
// lazy: a run without a crash never lists them.
func (sh *Sighost) publish(c *call, tr Transition) {
	rebuilt := tr.Cause == restarted
	at := tr.At // when the call enters tr.To
	if rebuilt {
		at = -1 // in the outage: nothing measures the state
	}
	if h := sh.h.stage[tr.From]; h != nil && tr.To != callReleased && c.at >= 0 {
		h.Observe(tr.At - c.at)
	}
	switch tr.To {
	case callRequested:
		sh.ct.callsRequested.Inc()
	case callEstablished:
		switch {
		case rebuilt:
			sh.Obs.Counter("sighost.recovered.wait_bind").Inc()
		case tr.Call.origin:
			sh.ct.callsEstablished.Inc()
			sh.h.setupTotal.Observe(at - c.opened)
		default:
			// The destination's grant is published once VCI_FOR_CONN has
			// reached the server, after its context switch: that delivery
			// is a span of its own, and the state is entered now.
			sh.ct.callsEstablished.Inc()
			at = sh.env.Now()
			sh.TraceC.Record(c.tcRoot, "sighost", "dest.deliver", tr.At, at)
			sh.h.acceptTotal.Observe(at - c.opened)
		}
	case callBound:
		if rebuilt {
			sh.Obs.Counter("sighost.recovered.bound").Inc()
		} else if sh.traceOn() {
			sh.emitTr(evBindOK, tr)
		}
	case callReleased:
		e := tr.Cause.ending()
		if ctr := sh.ct.ended[e.count]; ctr != nil {
			ctr.Inc()
		}
		fired := tr.Cause == cause{code: causeBindTimeout}
		if rebuilt {
			sh.Obs.Counter("sighost.recovery.aborted_calls").Inc()
		}
		if fired || rebuilt && tr.VCI != 0 {
			sh.ct.bindTimeouts.Inc()
		}
		if e.torn {
			sh.ct.callsTorn.Inc()
		}
		if sh.traceOn() {
			if fired {
				sh.emitTr(evBindTime, tr)
			}
			if e.torn {
				sh.emitTr(evTeardown, tr)
			}
		}
	}
	if tr.From == callNew {
		c.opened = at
	}
	c.at = at
	sh.handOff(tr)
}

// handOff gives tr to the hook: unset, a nil check (BenchmarkTransitionOverhead).
func (sh *Sighost) handOff(tr Transition) {
	if sh.hook != nil {
		sh.hook(tr)
	}
}

// traceOn reports whether any trace consumer is attached: the typed ring
// (EnableTrace) or the legacy Trace callback. Call sites gate event
// construction on this so disabled tracing costs one nil check and a
// bool load (BenchmarkEventRingOverhead).
func (sh *Sighost) traceOn() bool {
	return sh.Trace != nil || sh.tracing
}

// EnableTrace turns the typed event ring on or off: before the actor
// starts, or in actor context.
func (sh *Sighost) EnableTrace(on bool) { sh.tracing = on }

// emit timestamps one event and keeps it in the history, stamping its
// Seq, while the ring is on; the legacy Trace callback, when set, gets
// its rendered line now. The history holds the event as it is: Events
// renders it when it is read.
func (sh *Sighost) emit(ev Event) {
	ev.At = sh.env.Now()
	if sh.Trace != nil {
		sh.Trace(ev.text())
	}
	if sh.tracing {
		ev.Seq = sh.evSeq
		sh.evSeq++
		sh.events.Keep(ev, EventRingSize)
	}
}

// Events returns up to n of the history's newest events, oldest first,
// rendered. Call it in actor context (MGMT trace views) or after the run.
func (sh *Sighost) Events(n int) []Event {
	evs := sh.events.Last(n)
	for i := range evs {
		ev := &evs[i]
		ev.Comp, ev.Peer, ev.Text = "sighost", string(ev.peer), ev.text()
		if ev.Kind == evKernRx {
			ev.Peer = ev.ip.String()
		}
	}
	return evs
}

// emitMsg publishes a signaling-message event with typed identity fields.
func (sh *Sighost) emitMsg(kind string, peer atm.Addr, m *sigmsg.Msg) {
	if sh.traceOn() {
		sh.emit(Event{Kind: kind, peer: peer, VCI: uint32(m.VCI), CallID: m.CallID, Cookie: uint32(m.Cookie), msg: *m})
	}
}

// emitTr publishes a lifecycle event carrying its Transition.
func (sh *Sighost) emitTr(kind string, tr Transition) {
	sh.emit(Event{Kind: kind, VCI: uint32(tr.VCI), CallID: tr.Call.id, tr: tr})
}

// text renders an event in the exact legacy Trace format that the
// Figure 3/4 golden tests (and any external log scrapers) depend on.
func (ev *Event) text() string {
	switch ev.Kind {
	case evAppRx:
		return fmt.Sprintf("app->sighost %v", ev.msg)
	case evAppTx:
		return fmt.Sprintf("sighost->app %v", ev.msg)
	case evPeerTx:
		return fmt.Sprintf("peer->%s %v", ev.peer, ev.msg)
	case evPeerRx:
		return fmt.Sprintf("peer<-%s %v", ev.peer, ev.msg)
	case evKernRx:
		return fmt.Sprintf("kernel<-%v %v", ev.ip, ev.kmsg)
	case evTeardown:
		return fmt.Sprintf("teardown call=%d origin=%v reason=%q", ev.CallID, ev.tr.Call.origin, ev.tr.Cause.String())
	case evBindOK:
		return fmt.Sprintf("bind ok vci=%d", ev.VCI)
	case evBindTime:
		return fmt.Sprintf("bind timeout vci=%d call=%d", ev.VCI, ev.CallID)
	}
	// The generic form, without a component name, that the other kinds
	// have always read: the message for rel.*, <nil> for the rest.
	var data any
	if ev.Kind == evRelRetx || ev.Kind == evRelExhaust || ev.Kind == evRelDup {
		data = ev.msg
	}
	return fmt.Sprintf("[%v] .%s vci=%d call=%d %v", ev.At, ev.Kind, ev.VCI, ev.CallID, data)
}
