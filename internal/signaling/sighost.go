// Package signaling implements sighost, the user-space signaling entity
// at the center of the paper's design (§6–§7).
//
// The Sighost type is a pure state machine: it "only acts in response to
// messages received from the user library, the local or remote kernel,
// or the peer signaling entity". All I/O happens through the Env
// interface, so the same state machine runs inside the discrete-event
// simulation (SimHost, in this package) and inside a real daemon over
// TCP (cmd/sighost). Exactly as §7.3 describes, internal state lives in
// five lists — service_list, outgoing_requests, incoming_requests,
// wait_for_bind and VCI_mapping — plus the per-VCI cookie table of §7.1.
// A call's place in them follows from its state, and one function,
// transition, changes both; one function, end, ends a call, whatever
// the cause.
package signaling

import (
	"cmp"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/trace"
)

// Well-known ports.
const (
	// SigPort is the TCP port sighost accepts application RPCs on.
	SigPort = 177
	// AnandPort is the TCP port anand server accepts host relays on.
	AnandPort = 178
)

// Conn is a signaling-side view of one reliable IPC connection to an
// application (either accepted on SigPort or dialed to a notify port).
type Conn interface {
	Send(m sigmsg.Msg) error
	Close()
}

// VCHandle is an established circuit through the fabric.
type VCHandle struct {
	SrcVCI  atm.VCI
	DstVCI  atm.VCI
	Cost    time.Duration // switch-programming cost to charge
	Release func()
}

// CancelFunc cancels a pending timer.
type CancelFunc func()

// Env is everything sighost needs from its surroundings. An Env only
// produces inputs (actor.go): messages, kernel indications, timer
// firings and Dial results go into its actor's inbox, and one dispatch
// runs each, so callbacks run serialized with the handler methods — the
// actor discipline.
type Env interface {
	// Addr is this signaling entity's ATM address.
	Addr() atm.Addr
	// LocalIP is the router's own IP (applications on the router have
	// this as their endpoint address).
	LocalIP() memnet.IPAddr
	// Charge accounts busy time (context switches, per-call logging,
	// switch programming) against the signaling entity.
	Charge(d time.Duration)
	// After schedules fn in actor context after d. Once canceled, fn
	// never runs, even if d has passed and its firing waits in the
	// inbox. what names the timer's purpose ("rel.rto", "rel.keepalive",
	// "bind.timeout") for execution-profiler attribution; environments
	// without a profiler ignore it.
	After(d time.Duration, what string, fn func()) CancelFunc
	// SendPeer delivers a message to the signaling entity at dst over
	// the signaling PVC mesh. dst may equal Addr (local call loopback).
	SendPeer(dst atm.Addr, m sigmsg.Msg) error
	// SendPeerRaw delivers an already-encoded frame: raw is m's wire
	// encoding, cached by the reliability layer so retransmissions never
	// re-encode. m is consulted only for loopback delivery and trace
	// identity. raw is owned by the caller again once the call returns;
	// implementations that defer the send must copy it.
	SendPeerRaw(dst atm.Addr, m sigmsg.Msg, raw []byte) error
	// Dial opens an IPC connection to an application's notify port,
	// delivering the result asynchronously in actor context. Messages
	// arriving on the resulting Conn are fed to HandleApp.
	Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error))
	// SetupVC programs a circuit through the fabric from Addr to dst.
	SetupVC(dst atm.Addr, q qos.QoS) (*VCHandle, error)
	// KernelDisconnect marks the socket bound to vci on the endpoint
	// machine unusable (pseudo-device write; relayed through anand for
	// hosts, which also shuts the router's VCI forwarding).
	KernelDisconnect(endpoint memnet.IPAddr, vci atm.VCI)
	// Rand16 returns entropy for cookie generation.
	Rand16() uint16
	// Now is the current time on the clock that drives this entity (the
	// sim engine's virtual clock, or wall time since daemon start). It
	// timestamps trace events and feeds the latency histograms.
	Now() time.Duration
}

// service_list entry.
type serviceEntry struct {
	name string
	ip   memnet.IPAddr
	port uint16
}

// callKey identifies a call; the id is scoped to the originating
// sighost, and origin distinguishes the two views of a call both of
// whose endpoints this sighost serves.
type callKey struct {
	peer   atm.Addr
	id     uint32
	origin bool
}

// callState is where a call is in its life, and so which lists hold it:
//
//	callNew, callReleased                          none
//	callRequested, callSetupSent, callProgramming  outgoing_requests (origin)
//	callWaitServer, callAccepted                   incoming_requests (destination)
//	callEstablished                                wait_for_bind, cookies
//	callBound                                      VCI_mapping, cookies
//
// Each setup stage of Figure 4 is a state (events.go's stages).
type callState uint8

const (
	callNew         callState = iota // fresh from the pool
	callRequested                    // origin: CONNECT_REQ taken, SETUP not yet sent
	callSetupSent                    // origin: SETUP sent, awaiting ack
	callProgramming                  // origin: accepted, fabric being set up
	callWaitServer                   // dest: INCOMING_CONN sent, awaiting accept
	callAccepted                     // dest: accepted, awaiting CONNECT_DONE
	callEstablished                  // VCI handed out, awaiting bind
	callBound                        // bind authenticated
	callReleased
)

// requesting reports whether a call in state s is in a request list.
func requesting(s callState) bool { return s > callNew && s < callEstablished }

type call struct {
	key     callKey
	state   callState // written only by transition
	service string
	qosStr  string
	comment string

	// Endpoint application this side serves.
	endIP   memnet.IPAddr
	endPort uint16
	// ownerPID is the requesting process at the origin (0 if unknown),
	// used to cancel outstanding requests when the process dies.
	ownerPID uint32
	cookie   uint16 // the capability handed to this side's application

	// localVCI is this side's VCI (origin: source VCI, dest:
	// destination VCI).
	localVCI atm.VCI

	// vc is held at the origin only; releasing it unprograms the path.
	vc *VCHandle

	// serverConn is the per-call connection to the server's notify
	// port, held at the destination side during establishment.
	serverConn Conn

	// notified marks that CONN_FAILED was already delivered to this
	// side's application, so overlapping failure paths (explicit
	// rejection, crash recovery, teardown of a pre-VCI call) cannot
	// notify twice.
	notified bool

	// at is when the call entered its current state (publish sets it), or
	// -1 for a state Recover rebuilt, whose entry the outage lost; opened
	// is when it entered its first, where both setup totals start.
	at, opened time.Duration

	// Causal-trace contexts (zero when the call is untraced/unsampled):
	// the span its state holds open; the root span, which the destination
	// learns from CONNECT_DONE; the origin's call.setup; and, at the
	// destination, the origin's peer span, which SETUP carried.
	span    trace.Context
	tcRoot  trace.Context
	tcSetup trace.Context
	tcPeer  trace.Context

	// gen counts incarnations of this (pooled) struct. Asynchronous
	// callbacks capture the pointer AND the gen at launch; a mismatch at
	// delivery means the struct was recycled for a different call.
	gen uint32

	// Intrusive list links — the indexed call state. allNext/allPrev
	// thread every live call in creation order (deterministic journal
	// compaction); peerNext/peerPrev thread the calls sharing a peer
	// signaling entity (keepalive death sweep, link liveness);
	// ownNext/ownPrev thread outstanding origin requests by requesting
	// process (the §7.2 exit cascade). Freed structs reuse allNext as
	// the pool link.
	allNext, allPrev   *call
	peerNext, peerPrev *call
	ownNext, ownPrev   *call
	ownLinked          bool
}

// Sighost is the signaling entity.
type Sighost struct {
	env Env
	cm  CostModel

	// The five lists of §7.3.
	services map[string]*serviceEntry // service_list
	outgoing map[uint16]*call         // outgoing_requests
	incoming map[uint16]*call         // incoming_requests
	waitBind map[atm.VCI]*bindWait    // wait_for_bind
	vciMap   map[atm.VCI]*call        // VCI_mapping

	// cookies is the per-VCI table of cookies (§7.1).
	cookies map[atm.VCI]uint16

	calls map[callKey]*call
	pvcs  map[atm.VCI]bool

	// n mirrors the lengths of the lists, cookies and calls for readers
	// off the actor; hook, when set, gets every Transition (tests).
	n    sizes
	hook func(Transition)

	// Indexed call state: heads of the intrusive lists threading calls
	// (calls.go), plus the object pools that make the steady-state
	// setup→bind→teardown cycle allocation-free.
	allHead, allTail *call
	byPeer           map[atm.Addr]*peerCalls
	byOwner          map[ownerKey]*call
	callPool         *call
	bwPool           *bindWait
	dcPool           *dialCtx
	scratch          []*call // reusable cascade collection buffer

	nextCallID uint32

	// Obs is the telemetry registry all sighost metrics live in (shared
	// with the rest of the machine in the sim). ct/h are the pre-resolved
	// hot-path handles; tr gates structured event publication.
	Obs *obs.Registry
	ct  sigCounters
	h   sigHists
	tr  *obs.Tracer

	// Trace, when non-nil, receives one stringified line per event — the
	// legacy adapter over the typed event ring that the Figure 3/4 golden
	// tests and examples/ consume.
	Trace func(line string)

	// TraceC is the causal-trace collector (nil or disabled means no
	// span recording). In the sim it is the testbed-wide shared
	// collector, so spans recorded here and at the peer land in one
	// tree; the real-mode daemon gets a local wall-clock collector.
	TraceC *trace.Collector

	// rel is the reliable peer channel (nil until EnableReliability);
	// jr is the crash-recovery journal (nil until EnableJournal).
	rel *reliability
	jr  *journal
	// down marks a crashed entity: handlers drop everything until
	// Recover. epochGen is the incarnation number feeding new links'
	// reliability epochs.
	down     bool
	epochGen uint32

	// views are the attached MGMT views (mgmt.go, SetViews).
	views map[string]func() string
}

// CostModel is the slice of the simulation cost model sighost charges:
// context switches per IPC hop, per-call maintenance logging (§9's
// dominant call-setup cost, toggleable for the E3 ablation), and the
// wait_for_bind timeout.
type CostModel struct {
	ContextSwitch time.Duration
	CallLogging   time.Duration
	// TeardownLogging is the smaller per-call record written when a
	// call is released (part of the same maintenance information).
	TeardownLogging time.Duration
	BindTimeout     time.Duration
	LoggingEnabled  bool
}

// New creates a signaling entity over env with a private telemetry
// registry.
func New(env Env, cm CostModel) *Sighost {
	return NewWithObs(env, cm, obs.NewRegistry())
}

// NewWithObs creates a signaling entity that registers its metrics in reg
// (typically the owning machine's registry, so one mgmt query or report
// snapshot covers the whole stack).
func NewWithObs(env Env, cm CostModel, reg *obs.Registry) *Sighost {
	if cm.BindTimeout <= 0 {
		cm.BindTimeout = 30 * time.Second
	}
	sh := &Sighost{
		env:   env,
		cm:    cm,
		pvcs:  make(map[atm.VCI]bool),
		views: make(map[string]func() string),
		Obs:   reg,
		tr:    reg.Tracer("sighost"),
	}
	sh.wipe()
	sh.tr.SetRender(eventString)
	sh.register(reg)
	return sh
}

// wipe empties the five lists, the cookie table and the call indexes:
// the state a signaling process starts with, and loses when it dies.
// Calls it drops are not pooled: callbacks in flight may still hold them.
func (sh *Sighost) wipe() {
	sh.services = make(map[string]*serviceEntry)
	sh.outgoing = make(map[uint16]*call)
	sh.incoming = make(map[uint16]*call)
	sh.waitBind = make(map[atm.VCI]*bindWait)
	sh.vciMap = make(map[atm.VCI]*call)
	sh.cookies = make(map[atm.VCI]uint16)
	sh.calls = make(map[callKey]*call)
	sh.allHead, sh.allTail = nil, nil
	sh.byPeer = make(map[atm.Addr]*peerCalls)
	sh.byOwner = make(map[ownerKey]*call)
	for _, n := range []*size{&sh.n.services, &sh.n.outgoing, &sh.n.incoming, &sh.n.waitBind, &sh.n.vciMap, &sh.n.cookies, &sh.n.calls} {
		n.set(0)
	}
}

// AllowPVC marks a VCI as a preauthorized permanent circuit (the
// signaling PVCs themselves), exempt from cookie authentication.
func (sh *Sighost) AllowPVC(vci atm.VCI) { sh.pvcs[vci] = true }

// SetLogging toggles the per-call maintenance logging cost — the E3
// ablation isolating §9's dominant call-setup cost.
func (sh *Sighost) SetLogging(on bool) { sh.cm.LoggingEnabled = on }

// newCookie allocates an unused nonzero 16-bit capability.
func (sh *Sighost) newCookie() uint16 {
	for {
		c := sh.env.Rand16()
		_, out := sh.outgoing[c]
		_, in := sh.incoming[c]
		if c != 0 && !out && !in {
			return c
		}
	}
}

// transition is the one writer of a call's state and of its place in
// the lists, which follow from the state (see callState), and of the
// lengths it mirrors in sh.n. It journals each list entry as it is
// made: opening (either request list) as jOpen, wait_for_bind as jGrant,
// VCI_mapping as jBound, release as jEnd. why is the zero cause, or
// restarted when Recover rebuilds the call; deadline is the bind
// deadline, read only on entering callEstablished. It returns the
// change's record, which the caller publishes once the change is done:
// at once, but for a destination's grant, which is done when the server
// holds its VCI. end publishes its own Released record.
//
// It also makes the lifecycle spans (DESIGN.md §12), whose IDs, drawn
// from one testbed-wide sequence, must be taken at the change itself.
// The state left ends its span, unless the call ends there unanswered
// by a SETUP_REJ: FinishTrace marks that span Open. The requested
// stage's span is recorded as it ends, as other calls take IDs while
// its charges sleep.
func (sh *Sighost) transition(c *call, to callState, why cause, deadline time.Duration) Transition {
	from, vci, now, tc := c.state, c.localVCI, sh.env.Now(), sh.TraceC
	c.state = to
	switch {
	case from == callRequested:
		tc.Record(c.tcSetup, "sighost", stages[from].span, c.at, now)
	case to != callReleased || why.rejects():
		tc.EndSpanAt(c.span, now)
	}
	c.span = trace.Context{}
	if requesting(from) && !requesting(to) {
		if sh.outgoing[c.cookie] == c {
			delete(sh.outgoing, c.cookie)
			sh.unlinkOwner(c)
		} else if sh.incoming[c.cookie] == c {
			delete(sh.incoming, c.cookie)
		}
	}
	switch from {
	case callEstablished:
		if bw := sh.waitBind[vci]; bw != nil && bw.c == c {
			bw.cancel()
			delete(sh.waitBind, vci)
			sh.freeBindWait(bw)
		}
	case callBound:
		if sh.vciMap[vci] == c {
			delete(sh.vciMap, vci)
		}
	}
	if from == callNew {
		sh.linkCall(c)
		if c.key.origin {
			sh.outgoing[c.cookie] = c
			sh.linkOwner(c)
		} else {
			sh.incoming[c.cookie] = c
		}
		sh.jlog(openRec(c))
	}
	switch to {
	case callRequested:
		// The origin owns the trace: a root span for the call's whole
		// life, and call.setup, which its setup stages partition.
		c.tcRoot = tc.StartTrace("sighost", c.service, c.key.id)
		c.tcSetup = tc.StartSpanAt(c.tcRoot, "sighost", "call.setup", now)
	case callSetupSent, callProgramming:
		c.span = tc.StartSpanAt(c.tcSetup, "sighost", stages[to].span, now)
	case callWaitServer:
		c.span = tc.StartSpanAt(c.tcPeer, "sighost", stages[to].span, now)
	case callEstablished:
		// "sighost keeps a per-VCI timer that is loaded when a VCI is
		// handed to an application. If no bind (resp. connect)
		// indication is received before timeout, the connection is torn
		// down."
		sh.cookies[vci] = c.cookie
		tc.EndSpanAt(c.tcSetup, now)
		c.span = tc.StartSpanAt(c.tcRoot, "sighost", stages[to].span, now)
		sh.waitBind[vci] = sh.newBindWait(c, vci, deadline)
		sh.jlog(jrec{op: jGrant, key: c.key, vci: vci, cookie: c.cookie, deadline: deadline, vc: c.vc})
	case callBound:
		sh.cookies[vci] = c.cookie
		sh.vciMap[vci] = c
		sh.jlog(jrec{op: jBound, key: c.key, vci: vci})
	case callReleased:
		if from == callEstablished || from == callBound {
			delete(sh.cookies, vci)
		}
		sh.unlinkCall(c)
		sh.jlog(jrec{op: jEnd, key: c.key})
		if c.key.origin { // the trace moves into the flight recorder
			tc.FinishTrace(c.tcRoot, cmp.Or(why.ending().status, endings[why.code].status))
		}
	}
	sh.n.outgoing.set(len(sh.outgoing))
	sh.n.incoming.set(len(sh.incoming))
	sh.n.waitBind.set(len(sh.waitBind))
	sh.n.vciMap.set(len(sh.vciMap))
	sh.n.cookies.set(len(sh.cookies))
	sh.n.calls.set(len(sh.calls))
	return Transition{Call: c.key, From: from, To: to, VCI: vci, Cause: why, At: now}
}

// end is the one terminal path: whatever ends a call ends it here, once,
// doing what its cause's ending says in this fixed order. Charge moves
// the clock and every Env call schedules, so the order is the virtual
// history: a teardown charges and tells the peer last, anything else
// tells the peer first and charges nothing. The Released record is
// stamped as end begins and published before the charge.
func (sh *Sighost) end(c *call, why cause) {
	if c.state == callReleased {
		return
	}
	tr := Transition{Call: c.key, From: c.state, To: callReleased, VCI: c.localVCI, Cause: why, At: sh.env.Now()}
	e := why.ending()
	// A client that has only seen REQ_ID is still blocked awaiting its
	// VCI: tell it rather than leave it to run out its establishment
	// timeout. A client-initiated cancel needs no echo back.
	waiting := c.key.origin && c.state == callSetupSent && why.code != causeCanceled
	if !e.torn {
		sh.tellPeer(c, e.peer, why)
	}
	if e.notify && c.key.origin {
		sh.notifyClientFailure(c, e.client+why.text)
	}
	sh.publish(c, tr)
	if e.torn {
		if sh.cm.LoggingEnabled {
			sh.env.Charge(sh.cm.TeardownLogging)
		}
		if sh.rel != nil {
			// Pending establishment-phase retransmissions for a dead call
			// are pointless; drop them so they cannot outlive the call.
			sh.cancelCallRetransmits(c)
		}
	}
	sh.transition(c, callReleased, why, 0)
	if c.localVCI != 0 {
		// Mark the endpoint's socket unusable (and shut host
		// forwarding) so no more data flows on the dead circuit.
		sh.env.KernelDisconnect(c.endIP, c.localVCI)
	}
	if c.serverConn != nil {
		c.serverConn.Close()
	}
	if c.vc != nil {
		c.vc.Release()
	}
	if e.torn {
		sh.tellPeer(c, e.peer, why)
	}
	if waiting {
		sh.notifyClientFailure(c, why.String())
	}
	sh.releaseCall(c)
}

// tellPeer sends a call's end to the peer. RELEASE says which side's
// view releases it; SETUP_REJ answers the SETUP.
func (sh *Sighost) tellPeer(c *call, kind sigmsg.Kind, why cause) {
	switch kind {
	case sigmsg.KindRelease:
		sh.sendPeer(c.key.peer, sigmsg.Msg{
			Kind: kind, CallID: c.key.id, Reason: why.String(), FromOrigin: c.key.origin,
		})
	case sigmsg.KindSetupRej:
		sh.sendPeer(c.key.peer, sigmsg.Msg{
			Kind: kind, CallID: c.key.id, Reason: why.String(),
			TraceID: c.tcPeer.Trace, SpanID: c.tcPeer.Span,
		})
	}
}

// notifyClientFailure delivers CONN_FAILED to the client's notify port
// (at most once per call).
func (sh *Sighost) notifyClientFailure(c *call, reason string) {
	if c.notified {
		return
	}
	c.notified = true
	dc := sh.newDialCtx()
	dc.kind = dcNotify
	dc.cookie, dc.reason = c.cookie, reason
	sh.env.Dial(c.endIP, c.endPort, dc.cb)
}

// run dispatches one completed dial. It copies its state out and
// recycles the struct FIRST: the handlers below may tear calls down and
// launch new dials, and with a synchronous Env.Dial those re-enter the
// pool (and possibly this very struct) before run returns.
func (dc *dialCtx) run(conn Conn, err error) {
	sh := dc.sh
	defer sh.jflush() // dial completions are dispatches of their own
	kind, c, gen := dc.kind, dc.c, dc.gen
	cookie, vci, qosStr, reason, tc := dc.cookie, dc.vci, dc.qosStr, dc.reason, dc.tc
	dc.c, dc.qosStr, dc.reason = nil, "", ""
	dc.next = sh.dcPool
	sh.dcPool = dc

	switch kind {
	case dcServer:
		// The call may have been released (or its struct recycled) while
		// the dial was in flight.
		cur, live := sh.calls[c.key]
		if !live || cur != c || c.gen != gen || c.state != callWaitServer {
			if err == nil {
				conn.Close()
			}
			return
		}
		if err != nil {
			sh.end(c, cause{code: causeServerGone})
			return
		}
		c.serverConn = conn
		sh.sendApp(conn, sigmsg.Msg{
			Kind: sigmsg.KindIncomingConn, Service: c.service, Cookie: c.cookie,
			QoS: c.qosStr, Comment: c.comment,
		})
	case dcClientVCI:
		if err != nil {
			// Client vanished before establishment completed: tear the
			// call down end to end.
			if cur, live := sh.calls[c.key]; live && cur == c && c.gen == gen {
				sh.end(c, cause{code: causeClientGone})
			}
			return
		}
		sh.sendApp(conn, sigmsg.Msg{
			Kind: sigmsg.KindVCIForConn, Cookie: cookie, VCI: vci, QoS: qosStr,
			TraceID: tc.Trace, SpanID: tc.Span,
		})
		conn.Close()
	case dcNotify:
		if err != nil {
			return
		}
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindConnFailed, Cookie: cookie, Reason: reason})
		conn.Close()
	}
}

// sendApp replies to an application, charging the kernel-to-application
// context switch.
func (sh *Sighost) sendApp(conn Conn, m sigmsg.Msg) {
	sh.env.Charge(sh.cm.ContextSwitch)
	sh.emitMsg(EvAppTx, "", m)
	_ = conn.Send(m)
}

// HandleApp processes one message from an application IPC connection.
// from is the application machine's IP address (getpeername).
func (sh *Sighost) HandleApp(conn Conn, from memnet.IPAddr, m sigmsg.Msg) {
	defer sh.jflush() // one durable append per dispatch
	if sh.down {
		sh.Obs.Counter("sighost.dropped_while_down").Inc()
		return
	}
	sh.ct.appMsgs.Inc()
	// Application-to-kernel-to-sighost delivery: one switch charged at
	// the sender, one here.
	sh.env.Charge(sh.cm.ContextSwitch)
	sh.emitMsg(EvAppRx, "", m)
	switch m.Kind {
	case sigmsg.KindExportSrv:
		sh.handleExport(conn, from, m)
	case sigmsg.KindUnexportSrv:
		sh.handleUnexport(conn, m)
	case sigmsg.KindConnectReq:
		sh.handleConnectReq(conn, from, m)
	case sigmsg.KindCancelReq:
		sh.handleCancelReq(conn, m)
	case sigmsg.KindAcceptConn:
		sh.handleAcceptConn(conn, m)
	case sigmsg.KindRejectConn:
		sh.handleRejectConn(conn, m)
	case sigmsg.KindMgmtQuery:
		sh.handleMgmtQuery(conn, m)
	default:
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "unexpected " + m.Kind.String()})
	}
}

func (sh *Sighost) handleExport(conn Conn, from memnet.IPAddr, m sigmsg.Msg) {
	if m.Service == "" || m.NotifyPort == 0 {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "bad EXPORT_SRV"})
		return
	}
	sh.services[m.Service] = &serviceEntry{name: m.Service, ip: from, port: m.NotifyPort}
	sh.n.services.set(len(sh.services))
	sh.jlog(jrec{op: jExport, service: m.Service, ip: from, port: m.NotifyPort})
	sh.ct.servicesRegistered.Inc()
	sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindServiceRegs, Service: m.Service})
}

func (sh *Sighost) handleUnexport(conn Conn, m sigmsg.Msg) {
	if _, ok := sh.services[m.Service]; !ok {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "no such service"})
		return
	}
	delete(sh.services, m.Service)
	sh.n.services.set(len(sh.services))
	sh.jlog(jrec{op: jUnexport, service: m.Service})
	sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindServiceRegs, Service: m.Service})
}

// handleConnectReq starts a call on behalf of a client (Figure 4).
func (sh *Sighost) handleConnectReq(conn Conn, from memnet.IPAddr, m sigmsg.Msg) {
	if m.Dest == "" || m.Service == "" || m.NotifyPort == 0 {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "bad CONNECT_REQ"})
		return
	}
	sh.nextCallID++
	cookie := sh.newCookie()
	c := sh.newCall()
	c.key = callKey{peer: m.Dest, id: sh.nextCallID, origin: true}
	c.service, c.qosStr, c.comment = m.Service, m.QoS, m.Comment
	c.endIP, c.endPort, c.ownerPID = from, m.NotifyPort, m.PID
	c.cookie = cookie
	sh.publish(c, sh.transition(c, callRequested, cause{}, 0))
	// REQ_ID carries the cookie identifying the connection that will be
	// established on the client's behalf.
	sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindReqID, Cookie: cookie})
	// The large per-call maintenance logging of §9.
	if sh.cm.LoggingEnabled {
		sh.env.Charge(sh.cm.CallLogging)
	}
	// SETUP leaves, carrying the peer span the change opens, so the
	// destination's spans nest under it.
	sh.publish(c, sh.transition(c, callSetupSent, cause{}, 0))
	err := sh.sendPeer(m.Dest, sigmsg.Msg{
		Kind: sigmsg.KindSetup, CallID: c.key.id, Src: sh.env.Addr(), Dest: m.Dest,
		Service: m.Service, QoS: m.QoS, Comment: m.Comment,
		TraceID: c.span.Trace, SpanID: c.span.Span,
	})
	if err != nil {
		// No signaling path to the destination: fail the call now.
		sh.end(c, cause{code: causeUnreachable, text: err.Error()})
	}
}

func (sh *Sighost) handleCancelReq(conn Conn, m sigmsg.Msg) {
	c, ok := sh.outgoing[m.Cookie]
	if !ok {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "unknown request cookie"})
		return
	}
	sh.end(c, cause{code: causeCanceled})
	sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: m.Cookie})
}

// handleAcceptConn completes the server's half of Figure 3.
func (sh *Sighost) handleAcceptConn(conn Conn, m sigmsg.Msg) {
	c, ok := sh.incoming[m.Cookie]
	if !ok {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "unknown incoming cookie"})
		return
	}
	// Negotiation: the server may modify the QoS, but the result never
	// exceeds the client's request. Unparseable descriptors pass
	// through opaque, preserving the "uninterpreted string" contract.
	// An offer identical to the request negotiates to itself, so the
	// common accept-as-is path skips the parse (and the String alloc).
	granted := m.QoS
	if m.QoS != c.qosStr {
		if reqQ, err1 := qos.Parse(c.qosStr); err1 == nil {
			if offQ, err2 := qos.Parse(m.QoS); err2 == nil {
				granted = qos.Negotiate(reqQ, offQ).String()
			}
		}
	}
	c.qosStr = granted
	sh.sendPeer(c.key.peer, sigmsg.Msg{
		Kind: sigmsg.KindSetupAck, CallID: c.key.id, QoS: granted,
		TraceID: c.tcPeer.Trace, SpanID: c.tcPeer.Span,
	})
	if c.state == callWaitServer {
		sh.publish(c, sh.transition(c, callAccepted, cause{}, 0))
	}
}

func (sh *Sighost) handleRejectConn(conn Conn, m sigmsg.Msg) {
	c, ok := sh.incoming[m.Cookie]
	if !ok {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "unknown incoming cookie"})
		return
	}
	reason := m.Reason
	if reason == "" {
		reason = endings[causeRejected].text
	}
	sh.end(c, heard(sigmsg.KindRejectConn, reason))
}

func (sh *Sighost) sendPeer(dst atm.Addr, m sigmsg.Msg) error {
	// Loopback and non-call messages stay on the fast unsequenced path;
	// with reliability enabled, call-control messages to real peers get
	// sequence numbers and retransmission.
	if sh.rel != nil && dst != sh.env.Addr() {
		switch m.Kind {
		case sigmsg.KindSetup, sigmsg.KindSetupAck, sigmsg.KindSetupRej,
			sigmsg.KindConnectDone, sigmsg.KindRelease:
			return sh.relSend(dst, m)
		}
	}
	sh.emitMsg(EvPeerTx, string(dst), m)
	return sh.env.SendPeer(dst, m)
}

// HandlePeer processes one message from the signaling entity at from.
func (sh *Sighost) HandlePeer(from atm.Addr, m sigmsg.Msg) {
	defer sh.jflush() // one durable append per dispatch
	if sh.down {
		sh.Obs.Counter("sighost.dropped_while_down").Inc()
		return
	}
	if sh.rel != nil && from != sh.env.Addr() && !sh.relRecv(from, m) {
		return
	}
	sh.ct.peerMsgs.Inc()
	sh.emitMsg(EvPeerRx, string(from), m)
	switch m.Kind {
	case sigmsg.KindSetup:
		sh.peerSetup(from, m)
	case sigmsg.KindSetupAck:
		sh.peerSetupAck(from, m)
	case sigmsg.KindSetupRej:
		if c, ok := sh.calls[callKey{peer: from, id: m.CallID, origin: true}]; ok {
			sh.end(c, heard(sigmsg.KindSetupRej, m.Reason))
		}
	case sigmsg.KindConnectDone:
		sh.peerConnectDone(from, m)
	case sigmsg.KindRelease:
		// Call IDs are scoped to the originating sighost, so the
		// message's FromOrigin flag selects exactly one local view: a
		// release from the call's origin tears our destination view, and
		// vice versa. (Without the flag, two routers that each
		// originated a call with the same ID toward each other would
		// tear both down.)
		if c, ok := sh.calls[callKey{peer: from, id: m.CallID, origin: !m.FromOrigin}]; ok {
			sh.end(c, heard(sigmsg.KindRelease, m.Reason))
		}
	}
}

// peerSetup is the destination side of call establishment: look the
// service up, dial the server's notify port, forward INCOMING_CONN.
func (sh *Sighost) peerSetup(from atm.Addr, m sigmsg.Msg) {
	// Idempotency: a duplicated or replayed SETUP for a call we already
	// know must not allocate a second cookie, dial the server twice, or
	// leak a second state-list entry.
	if _, dup := sh.calls[callKey{peer: from, id: m.CallID, origin: false}]; dup {
		return
	}
	// The SETUP's trace context is the origin's peer span: everything
	// this side does until SETUP_ACK/SETUP_REJ nests under it.
	wire := trace.Context{Trace: m.TraceID, Span: m.SpanID}
	svc, ok := sh.services[m.Service]
	if !ok {
		sh.sendPeer(from, sigmsg.Msg{
			Kind: sigmsg.KindSetupRej, CallID: m.CallID, Reason: "no such service: " + m.Service,
			TraceID: wire.Trace, SpanID: wire.Span,
		})
		return
	}
	if sh.cm.LoggingEnabled {
		sh.env.Charge(sh.cm.CallLogging)
	}
	cookie := sh.newCookie()
	c := sh.newCall()
	c.key = callKey{peer: from, id: m.CallID, origin: false}
	c.service, c.qosStr, c.comment = m.Service, m.QoS, m.Comment
	c.endIP, c.endPort = svc.ip, svc.port
	c.cookie = cookie
	c.tcPeer = wire
	sh.publish(c, sh.transition(c, callWaitServer, cause{}, 0))
	dc := sh.newDialCtx()
	dc.kind = dcServer
	dc.c, dc.gen = c, c.gen
	sh.env.Dial(svc.ip, svc.port, dc.cb)
}

// peerSetupAck is the origin side after the server accepted: program
// the fabric, hand the VCI to the client, tell the peer the circuit.
func (sh *Sighost) peerSetupAck(from atm.Addr, m sigmsg.Msg) {
	c, ok := sh.calls[callKey{peer: from, id: m.CallID, origin: true}]
	if !ok || c.state != callSetupSent {
		return
	}
	sh.publish(c, sh.transition(c, callProgramming, cause{}, 0))
	c.qosStr = m.QoS
	q, err := qos.Parse(m.QoS)
	if err != nil {
		q = qos.BestEffortQoS
	}
	progAt := sh.env.Now()
	vc, err := sh.env.SetupVC(c.key.peer, q)
	if err != nil {
		sh.end(c, cause{code: causeAdmission, text: err.Error()})
		return
	}
	sh.env.Charge(vc.Cost)
	// The switch-programming charge is the per-hop cost of writing the
	// VCI tables along the path (DESIGN.md §2's control-plane note).
	sh.TraceC.Record(c.span, "xswitch", "program_vc", progAt, sh.env.Now())
	c.vc = vc
	c.localVCI = vc.SrcVCI
	sh.publish(c, sh.transition(c, callEstablished, cause{}, sh.env.Now()+sh.cm.BindTimeout))
	sh.sendPeer(from, sigmsg.Msg{
		Kind: sigmsg.KindConnectDone, CallID: m.CallID, VCI: vc.DstVCI, QoS: c.qosStr,
		TraceID: c.tcRoot.Trace, SpanID: c.tcRoot.Span,
	})
	// Hand the VCI to the client on its notify port. The payload rides
	// the dial context by value so delivery needs nothing from the call.
	dc := sh.newDialCtx()
	dc.kind = dcClientVCI
	dc.c, dc.gen = c, c.gen
	dc.cookie, dc.vci, dc.qosStr, dc.tc = c.cookie, c.localVCI, c.qosStr, c.tcRoot
	sh.env.Dial(c.endIP, c.endPort, dc.cb)
}

// peerConnectDone is the destination side when the circuit is
// programmed: hand the VCI to the server over the held per-call
// connection, then close it.
func (sh *Sighost) peerConnectDone(from atm.Addr, m sigmsg.Msg) {
	c, ok := sh.calls[callKey{peer: from, id: m.CallID, origin: false}]
	if !ok || c.state != callAccepted {
		return
	}
	c.localVCI = m.VCI
	c.qosStr = m.QoS
	// CONNECT_DONE carries the call's root span; the destination's
	// remaining work (VCI delivery, wait_for_bind) hangs off it.
	c.tcRoot = trace.Context{Trace: m.TraceID, Span: m.SpanID}
	granted := sh.transition(c, callEstablished, cause{}, sh.env.Now()+sh.cm.BindTimeout)
	if c.serverConn != nil {
		sh.sendApp(c.serverConn, sigmsg.Msg{
			Kind: sigmsg.KindVCIForConn, Cookie: c.cookie, VCI: m.VCI, QoS: m.QoS,
			TraceID: c.tcRoot.Trace, SpanID: c.tcRoot.Span,
		})
		c.serverConn.Close()
		c.serverConn = nil
	}
	sh.publish(c, granted)
}

// fireNow is the wait_for_bind timeout. Every path that frees the entry
// cancels its timer first, and a canceled timer never runs, so the entry
// is still the call's. Nothing reads it after end, which recycles both
// it and the call.
func (bw *bindWait) fireNow() {
	sh := bw.sh
	defer sh.jflush() // timer fires are dispatches of their own
	// Fire lag: how far past its nominal deadline the timer ran
	// (always 0 in the sim; real daemons see scheduler jitter).
	sh.h.bindTimerLag.Observe(sh.env.Now() - bw.deadline)
	sh.end(bw.c, cause{code: causeBindTimeout})
}

// HandleKernel processes one pseudo-device (or anand-relayed) message.
// from is the machine whose kernel produced it: the router itself, or
// an IP-connected host.
func (sh *Sighost) HandleKernel(from memnet.IPAddr, k kern.KMsg) {
	defer sh.jflush() // one durable append per dispatch
	if sh.down {
		sh.Obs.Counter("sighost.dropped_while_down").Inc()
		return
	}
	sh.ct.kernelMsgs.Inc()
	if sh.traceOn() {
		sh.emit(obs.Event{
			Kind: EvKernRx, Peer: from.String(),
			VCI: uint32(k.VCI), Cookie: uint32(k.Cookie), Data: k,
		})
	}
	switch k.Kind {
	case kern.MsgBind, kern.MsgConnect:
		sh.kernelBindConnect(from, k)
	case kern.MsgClose:
		// The call whose endpoint closed its socket.
		if sh.pvcs[k.VCI] {
			return
		}
		if c, ok := sh.vciMap[k.VCI]; ok {
			sh.end(c, cause{code: causeSocketClosed})
		} else if bw, ok := sh.waitBind[k.VCI]; ok {
			sh.end(bw.c, cause{code: causeClosedUnused})
		}
	case kern.MsgExit:
		// Per-socket close indications have already arrived (exit
		// processing closes descriptors first), so bound circuits are
		// gone. What remains is the §7.2 case: the process had
		// *outstanding requests* — calls still being established — and
		// "the termination indication is needed to allow sighost to
		// inform the remote router (or host) that the client no longer
		// exists, and the connection can be torn down." The owner chain
		// holds exactly this process's entries, in creation order, so
		// the sweep is O(affected) and deterministic.
		doomed := sh.scratch[:0]
		for c := sh.byOwner[ownerKey{ip: from, pid: k.PID}]; c != nil; c = c.ownNext {
			doomed = append(doomed, c)
		}
		for _, c := range doomed {
			sh.end(c, cause{code: causeClientExit})
		}
		sh.scratch = doomed[:0]
	}
}

// kernelBindConnect authenticates a bind/connect against the per-VCI
// cookie table. "If authentication fails, the call is torn down, and
// the socket marked unusable."
func (sh *Sighost) kernelBindConnect(from memnet.IPAddr, k kern.KMsg) {
	if sh.pvcs[k.VCI] {
		return // signaling's own permanent circuits
	}
	want, known := sh.cookies[k.VCI]
	if !known {
		// A bind to a VCI signaling never granted: malicious or stale.
		sh.ct.authFailures.Inc()
		sh.env.KernelDisconnect(from, k.VCI)
		return
	}
	bw, waiting := sh.waitBind[k.VCI]
	if k.Cookie != want {
		sh.ct.authFailures.Inc()
		if waiting {
			sh.end(bw.c, cause{code: causeAuthFailed})
		} else if c, ok := sh.vciMap[k.VCI]; ok {
			sh.end(c, cause{code: causeAuthFailed})
		}
		sh.env.KernelDisconnect(from, k.VCI)
		return
	}
	if !waiting {
		return
	}
	c := bw.c
	// The kernel indication rode the pseudo-device (or anand relay) from
	// its post time k.At; it is recorded inside the wait_bind span that
	// the move to VCI_mapping closes.
	if c.span.Sampled() && k.At > 0 {
		sh.TraceC.Record(c.span, "kern", k.Kind.String(), k.At, sh.env.Now())
	}
	sh.publish(c, sh.transition(c, callBound, cause{}, 0))
}
