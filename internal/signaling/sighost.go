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
// wait_for_bind and VCI_mapping; a VCI's cookie (§7.1) is that of the
// call it maps to. A call's place in them follows from its state, and
// one function, transition, changes both; one function, end, ends a
// call, whatever the cause.
package signaling

import (
	"cmp"
	"time"

	"xunet/internal/atm"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
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
	// Charge accounts busy time (context switches, per-call logging,
	// switch programming) against the signaling entity.
	Charge(d time.Duration)
	// After schedules fn in actor context d after Now. Once canceled, fn
	// never runs, even if d has passed and its firing waits in the
	// inbox. what names the timer's purpose ("rel.rto", "rel.keepalive",
	// "bind.timeout") for execution-profiler attribution; environments
	// without a profiler ignore it.
	After(d time.Duration, what string, fn func()) CancelFunc
	// SendPeer delivers a message to the signaling entity at dst over
	// the signaling PVC mesh; dst may equal Addr (local call loopback).
	// raw is m's wire encoding, made once by sighost (the reliability
	// layer caches it, so retransmissions never re-encode); m is
	// consulted for loopback delivery and trace identity. raw is owned
	// by the caller again once the call returns; an implementation that
	// defers the send copies it or re-encodes m.
	SendPeer(dst atm.Addr, m sigmsg.Msg, raw []byte) error
	// Dial opens an IPC connection to an application's notify port,
	// delivering the result asynchronously in actor context. Messages
	// arriving on the resulting Conn are application inputs.
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
	// sim actor's, past the engine's by its charges, or wall time since
	// daemon start). It timestamps traces and feeds the histograms.
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
//	callEstablished                                wait_for_bind
//	callBound                                      VCI_mapping
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

	localVCI atm.VCI   // this side's VCI (origin: source, dest: destination)
	vc       *VCHandle // held at the origin only; releasing it unprograms the path
	// serverConn is the per-call connection to the server's notify
	// port, held at the destination side during establishment.
	serverConn Conn
	// notified marks that CONN_FAILED was already delivered to this
	// side's application, so overlapping failure paths cannot notify twice.
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

	// stop cancels the timer of the call's state, which transition arms
	// on entry (nil while the state has none), and deadline is when it
	// runs out. alarm, bound once per struct, is the timer's input.
	stop     CancelFunc
	deadline time.Duration
	alarm    func()

	// seq is the call's place in creation order, stamped as it leaves
	// callNew: the walks over several calls (exit, peer death, journal
	// compaction, crash) go in its order.
	seq uint64
}

// Sighost is the signaling entity.
type Sighost struct {
	env Env
	cm  CostModel

	// The five lists of §7.3.
	services map[string]*serviceEntry // service_list
	outgoing map[uint16]*call         // outgoing_requests, by cookie
	incoming map[uint16]*call         // incoming_requests, by cookie
	waitBind byVCI                    // wait_for_bind
	vciMap   byVCI                    // VCI_mapping

	// Cookies are random 16-bit capabilities, so the request lists stay
	// hashed; the call index and the VCI-keyed tables are indexed.
	calls callTable
	pvcs  []bool // by VCI

	// n mirrors the lengths of the lists, the cookies (VCIs mapped to a
	// call) and calls for readers off the actor. Tests set hook, given
	// every Transition, and cells.
	n     sizes
	hook  func(Transition)
	cells func(c *call, gen uint32, from callState, on callInput)

	// The last seq stamped, and the pools (calls.go) that make the
	// setup→bind→teardown cycle allocation-free: inputs holds the sim
	// inbox's records and those sighost makes for its own cells (react).
	lastSeq  uint64
	callPool sim.FreeList[call]
	dcPool   sim.FreeList[dialCtx]
	inputs   sim.FreeList[input]
	txBuf    []byte // sendFrame's encode scratch

	nextCallID uint32

	// Obs holds all sighost metrics (the machine's registry, in the sim);
	// ct/h are hot-path handles.
	Obs *obs.Registry
	ct  sigCounters
	h   sigHists

	// events is the event history MGMT trace reads, grown on first use,
	// evSeq the next event's Seq; emit writes both only while tracing is on.
	events  sim.Ring[Event]
	evSeq   uint64
	tracing bool

	// Trace, when non-nil, receives one stringified line per event — the
	// legacy adapter over the typed event ring that the Figure 3/4 golden
	// tests and examples/ consume.
	Trace func(line string)

	// TraceC is the causal-trace collector (nil or disabled: no spans),
	// in the sim the testbed-wide one, so both peers' spans land in one
	// tree; the real-mode daemon gets a local wall-clock collector.
	TraceC *trace.Collector

	rel      *reliability // the reliable peer channel (nil until EnableReliability)
	jr       *journal     // the crash-recovery journal (nil until EnableJournal)
	down     bool         // crashed: inputs are dropped until Recover
	epochGen uint32       // the incarnation, feeding new links' reliability epochs

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
		views: make(map[string]func() string),
		Obs:   reg,
	}
	sh.wipe()
	sh.register(reg)
	return sh
}

// wipe empties the five lists and the call table:
// the state a signaling process starts with, and loses when it dies.
// The calls it drops, their timers canceled, return to the pool in
// creation order; a callback in flight that still holds one finds its
// gen moved on.
func (sh *Sighost) wipe() {
	for _, c := range sh.calls.bySeq(every) {
		if c.stop != nil {
			c.stop()
		}
		sh.releaseCall(c)
	}
	sh.services = make(map[string]*serviceEntry)
	sh.outgoing = make(map[uint16]*call)
	sh.incoming = make(map[uint16]*call)
	sh.waitBind, sh.vciMap, sh.calls = byVCI{}, byVCI{}, callTable{}
	for _, n := range []*size{&sh.n.services, &sh.n.outgoing, &sh.n.incoming, &sh.n.waitBind, &sh.n.vciMap, &sh.n.cookies, &sh.n.calls} {
		n.set(0)
	}
}

// AllowPVC marks a VCI as a preauthorized permanent circuit (the
// signaling PVCs themselves), exempt from cookie authentication.
func (sh *Sighost) AllowPVC(vci atm.VCI) {
	sh.pvcs = atm.Grow(sh.pvcs, vci)
	sh.pvcs[vci] = true
}

// SetLogging toggles the per-call maintenance logging cost — the E3
// ablation isolating §9's dominant call-setup cost.
func (sh *Sighost) SetLogging(on bool) { sh.cm.LoggingEnabled = on }

// mapped is 1 if vci maps to a call, in wait_for_bind or VCI_mapping,
// and else 0: what vci adds to the count of live cookies.
func (sh *Sighost) mapped(vci atm.VCI) int {
	if sh.waitBind.at(vci) != nil || sh.vciMap.at(vci) != nil {
		return 1
	}
	return 0
}

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

// transition is the one writer of a call's state, of its place in
// sh.calls and the lists, which follow from the state (see callState),
// of the lengths sh.n mirrors, and of its state's timer (stages): the
// state left's is canceled, the state entered's armed to run out at
// deadline, which Recover passes to keep what a rebuilt call had left,
// or else after the state's full duration. It journals each list entry
// as it is made: opening (either request list) as jOpen, wait_for_bind
// as jGrant, VCI_mapping as jBound, release as jEnd. why is the zero
// cause, or restarted when Recover rebuilds the call. It returns the
// change's record, which the caller publishes once the change is done:
// at once, but for a destination's grant, which is done when the server
// holds its VCI. end publishes its own Released record.
//
// It also makes the lifecycle spans (DESIGN.md §12), whose IDs, drawn
// from one testbed-wide sequence, must be taken at the change itself.
// The state left ends its span, unless the call ends there unanswered
// by a SETUP_REJ: FinishTraceAt marks that span Open. The requested
// stage's span is recorded as it ends.
func (sh *Sighost) transition(c *call, to callState, why cause, deadline time.Duration) Transition {
	from, vci, now, tc := c.state, c.localVCI, sh.env.Now(), sh.TraceC
	mapped := sh.mapped(vci)
	c.state = to
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
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
		} else if sh.incoming[c.cookie] == c {
			delete(sh.incoming, c.cookie)
		}
	}
	switch from {
	case callEstablished:
		sh.waitBind.drop(vci, c)
	case callBound:
		sh.vciMap.drop(vci, c)
	}
	if from == callNew {
		sh.lastSeq++
		c.seq = sh.lastSeq
		sh.calls.put(c)
		if c.key.origin {
			sh.outgoing[c.cookie] = c
		} else {
			sh.incoming[c.cookie] = c
		}
		sh.jlog(openRec(c))
	}
	if st := &stages[to]; st.timeout != nil {
		if deadline == 0 {
			deadline = now + st.timeout(&sh.cm)
		}
		c.deadline = deadline
		c.stop = sh.env.After(deadline-now, st.timer, c.alarm)
	}
	switch to {
	case callRequested:
		// The origin owns the trace: a root span for the call's whole
		// life, and call.setup, which its setup stages partition.
		c.tcRoot = tc.StartCallTrace(string(sh.env.Addr()), "sighost", c.service, c.key.id, now)
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
		tc.EndSpanAt(c.tcSetup, now)
		c.span = tc.StartSpanAt(c.tcRoot, "sighost", stages[to].span, now)
		sh.waitBind.put(vci, c)
		sh.jlog(jrec{op: jGrant, key: c.key, vci: vci, cookie: c.cookie, deadline: deadline, vc: c.vc})
	case callBound:
		sh.vciMap.put(vci, c)
		sh.jlog(jrec{op: jBound, key: c.key, vci: vci})
	case callReleased:
		sh.calls.drop(c)
		sh.jlog(jrec{op: jEnd, key: c.key})
		if c.key.origin { // the trace moves into the flight recorder
			tc.FinishTraceAt(c.tcRoot, cmp.Or(why.ending().status, endings[why.code].status), now)
		}
	}
	sh.n.outgoing.set(len(sh.outgoing))
	sh.n.incoming.set(len(sh.incoming))
	sh.n.waitBind.set(sh.waitBind.n)
	sh.n.vciMap.set(sh.vciMap.n)
	sh.n.cookies.set(int(sh.n.cookies.get()) + sh.mapped(vci) - mapped)
	sh.n.calls.set(sh.calls.len())
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
	if c.localVCI != 0 && sh.mapped(c.localVCI) == 0 {
		// Stop data on the dead circuit, unless a newer call holds its
		// VCI: the disconnect names no grant, so it would shut that one.
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
	m := sigmsg.Msg{Kind: kind, CallID: c.key.id, Reason: why.String(), FromOrigin: c.key.origin}
	if kind == sigmsg.KindSetupRej {
		m.FromOrigin, m.TraceID, m.SpanID = false, c.tcPeer.Trace, c.tcPeer.Span
	}
	if kind != 0 {
		sh.sendPeer(c.key.peer, m)
	}
}

// notifyClientFailure delivers CONN_FAILED to the client's notify port
// (at most once per call).
func (sh *Sighost) notifyClientFailure(c *call, reason string) {
	if c.notified {
		return
	}
	c.notified = true
	sh.dial(c.endIP, c.endPort, nil, sigmsg.Msg{Kind: sigmsg.KindConnFailed, Cookie: c.cookie, Reason: reason})
}

// dialed is one completed dial, an input of the call it names, which a
// call ended (or struct recycled) meanwhile makes a lookup miss. It
// recycles dc FIRST: its cells may launch dials, and with a synchronous
// Env.Dial those re-enter the pool (and maybe dc) before dialed returns.
func (sh *Sighost) dialed(dc *dialCtx, conn Conn, err error) {
	c, m := dc.c, dc.m
	if c != nil && (c.gen != dc.gen || sh.calls.get(c.key) != c) {
		c = nil
	}
	dc.c, dc.m = nil, sigmsg.Msg{}
	sh.dcPool.Put(dc)
	switch {
	case m.Kind == 0 && err != nil:
		sh.react(c, onServerUnreachable, nil)
	case m.Kind == 0:
		sh.react(c, onServerDialed, conn)
	case err == nil:
		sh.sendApp(conn, m)
		conn.Close()
	case m.Kind == sigmsg.KindVCIForConn:
		// The client vanished before establishment completed.
		sh.react(c, onClientUnreachable, nil)
	}
}

// sendApp replies to an application, charging the kernel-to-application
// context switch.
func (sh *Sighost) sendApp(conn Conn, m sigmsg.Msg) {
	sh.env.Charge(sh.cm.ContextSwitch)
	sh.emitMsg(evAppTx, "", &m)
	_ = conn.Send(m)
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

// The protocol's cells (events.go's protocol table) get the call the
// input named, nil in state new, and the input.
// connectReq starts a call on behalf of a client (Figure 4).
func (sh *Sighost) connectReq(_ *call, in *input) {
	m := in.msg
	if m.Dest == "" || m.Service == "" || m.NotifyPort == 0 {
		sh.sendApp(in.conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "bad CONNECT_REQ"})
		return
	}
	sh.nextCallID++
	cookie := sh.newCookie()
	c := sh.newCall()
	c.key = callKey{peer: m.Dest, id: sh.nextCallID, origin: true}
	c.service, c.qosStr, c.comment = m.Service, m.QoS, m.Comment
	c.endIP, c.endPort, c.ownerPID = in.ip, m.NotifyPort, m.PID
	c.cookie = cookie
	sh.publish(c, sh.transition(c, callRequested, cause{}, 0))
	// REQ_ID carries the cookie identifying the connection that will be
	// established on the client's behalf.
	sh.sendApp(in.conn, sigmsg.Msg{Kind: sigmsg.KindReqID, Cookie: cookie})
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

// unknownCookie answers a cookie that names no call in the request list
// the message acts on.
func (sh *Sighost) unknownCookie(_ *call, in *input) {
	reason := "unknown incoming cookie"
	if in.msg.Kind == sigmsg.KindCancelReq {
		reason = "unknown request cookie"
	}
	sh.sendApp(in.conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: reason})
}

func (sh *Sighost) cancelReq(c *call, in *input) {
	sh.end(c, cause{code: causeCanceled})
	sh.sendApp(in.conn, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: in.msg.Cookie})
}

// acceptConn completes the server's half of Figure 3.
func (sh *Sighost) acceptConn(c *call, in *input) {
	// Negotiation: the server may modify the QoS, but the result never
	// exceeds the client's request. Unparseable descriptors pass through
	// opaque (the "uninterpreted string" contract), and an offer equal to
	// the request skips the parse (and the String alloc).
	granted := in.msg.QoS
	if granted != c.qosStr {
		if reqQ, err1 := qos.Parse(c.qosStr); err1 == nil {
			if offQ, err2 := qos.Parse(granted); err2 == nil {
				granted = qos.Negotiate(reqQ, offQ).String()
			}
		}
	}
	c.qosStr = granted
	sh.sendPeer(c.key.peer, sigmsg.Msg{
		Kind: sigmsg.KindSetupAck, CallID: c.key.id, QoS: granted,
		TraceID: c.tcPeer.Trace, SpanID: c.tcPeer.Span,
	})
	sh.publish(c, sh.transition(c, callAccepted, cause{}, 0))
}

func (sh *Sighost) sendPeer(dst atm.Addr, m sigmsg.Msg) error {
	// With reliability enabled, call-control messages to other peers are
	// sequenced and retransmitted; the rest take the unsequenced path.
	if sh.rel != nil && dst != sh.env.Addr() {
		switch m.Kind {
		case sigmsg.KindSetup, sigmsg.KindSetupAck, sigmsg.KindSetupRej,
			sigmsg.KindConnectDone, sigmsg.KindRelease:
			return sh.relSend(dst, m)
		}
	}
	sh.emitMsg(evPeerTx, dst, &m)
	return sh.sendFrame(dst, m)
}

// sendFrame encodes an unsequenced peer message into sighost's scratch
// and sends that frame; every consumer copies it before returning.
func (sh *Sighost) sendFrame(dst atm.Addr, m sigmsg.Msg) error {
	sh.txBuf = m.AppendTo(sh.txBuf[:0])
	return sh.env.SendPeer(dst, m, sh.txBuf)
}

// peerSetup is the destination side of call establishment: look the
// service up, dial the server's notify port, forward INCOMING_CONN
// once the dial completes (serverDialed).
func (sh *Sighost) peerSetup(_ *call, in *input) {
	from, m := in.peer, in.msg
	svc, ok := sh.services[m.Service]
	if !ok {
		sh.sendPeer(from, sigmsg.Msg{
			Kind: sigmsg.KindSetupRej, CallID: m.CallID, Reason: "no such service: " + m.Service,
			TraceID: m.TraceID, SpanID: m.SpanID,
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
	// SETUP carries the origin's peer span: everything this side does
	// until SETUP_ACK/SETUP_REJ nests under it.
	c.tcPeer = trace.Context{Trace: m.TraceID, Span: m.SpanID}
	sh.publish(c, sh.transition(c, callWaitServer, cause{}, 0))
	sh.dial(svc.ip, svc.port, c, sigmsg.Msg{})
}

func (sh *Sighost) serverDialed(c *call, in *input) {
	c.serverConn = in.conn
	sh.sendApp(in.conn, sigmsg.Msg{
		Kind: sigmsg.KindIncomingConn, Service: c.service, Cookie: c.cookie,
		QoS: c.qosStr, Comment: c.comment,
	})
}

// closeDialed closes a server connection whose call is gone.
func (sh *Sighost) closeDialed(_ *call, in *input) { in.conn.Close() }

// peerSetupAck is the origin side after the server accepted: program
// the fabric, hand the VCI to the client, tell the peer the circuit.
func (sh *Sighost) peerSetupAck(c *call, in *input) {
	m := in.msg
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
	sh.publish(c, sh.transition(c, callEstablished, cause{}, 0))
	sh.sendPeer(c.key.peer, sigmsg.Msg{
		Kind: sigmsg.KindConnectDone, CallID: m.CallID, VCI: vc.DstVCI, QoS: c.qosStr,
		TraceID: c.tcRoot.Trace, SpanID: c.tcRoot.Span,
	})
	// Hand the VCI to the client on its notify port.
	sh.dial(c.endIP, c.endPort, c, sigmsg.Msg{
		Kind: sigmsg.KindVCIForConn, Cookie: c.cookie, VCI: c.localVCI, QoS: c.qosStr,
		TraceID: c.tcRoot.Trace, SpanID: c.tcRoot.Span,
	})
}

// peerConnectDone is the destination side when the circuit is
// programmed: hand the VCI to the server over the held per-call
// connection, then close it.
func (sh *Sighost) peerConnectDone(c *call, in *input) {
	m := in.msg
	c.localVCI = m.VCI
	c.qosStr = m.QoS
	// CONNECT_DONE carries the call's root span; the destination's
	// remaining work (VCI delivery, wait_for_bind) hangs off it.
	c.tcRoot = trace.Context{Trace: m.TraceID, Span: m.SpanID}
	granted := sh.transition(c, callEstablished, cause{}, 0)
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

// heardEnd ends the call for the reason its message carried: a peer's
// RELEASE or SETUP_REJ, or a server's REJECT_CONN, which without one is
// "rejected by server".
func (sh *Sighost) heardEnd(c *call, in *input) {
	reason := in.msg.Reason
	if in.msg.Kind == sigmsg.KindRejectConn {
		reason = cmp.Or(reason, endings[causeRejected].text)
	}
	sh.end(c, heard(in.msg.Kind, reason))
}

// expire is the state's timer running out, its fire lag how far past the
// deadline it ran (0 in the sim; real daemons see scheduler jitter).
func (sh *Sighost) expire(c *call, _ *input) {
	sh.h.bindTimerLag.Observe(sh.env.Now() - c.deadline)
	sh.end(c, cause{code: stages[c.state].expiry})
}

// bindOK is a bind/connect that matched its VCI's cookie (§7.1).
func (sh *Sighost) bindOK(c *call, in *input) {
	k := in.kmsg
	// The indication rode the pseudo-device (or anand relay) from its post
	// time k.At, recorded inside the wait_bind span the move closes.
	if c.span.Sampled() && k.At > 0 {
		sh.TraceC.Record(c.span, "kern", k.Kind.String(), k.At, sh.env.Now())
	}
	sh.publish(c, sh.transition(c, callBound, cause{}, 0))
}

// authFailed is a bind/connect that fails authentication: to a VCI
// signaling never granted (no call), malicious or stale, or with the
// wrong cookie. "If authentication fails, the call is torn down, and
// the socket marked unusable."
func (sh *Sighost) authFailed(c *call, in *input) {
	sh.ct.authFailures.Inc()
	if c != nil {
		sh.end(c, cause{code: causeAuthFailed})
	}
	sh.env.KernelDisconnect(in.ip, in.kmsg.VCI)
}
