package signaling

import (
	"slices"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
)

// input is one entry of the actor's inbox, in either environment. The
// paper's sighost "only acts in response to messages received from the
// user library, the local or remote kernel, or the peer signaling
// entity" (§7), so an Env only produces inputs of these kinds, and
// dispatch runs each to completion. The sim inbox carries records drawn
// from the entity's free list (Sighost.inputs), which the actor puts
// back once dispatch returns: a cell that keeps part of its input copies
// it. Real mode's inbox channel carries inputs by value.
type input struct {
	kind   inputKind
	conn   Conn              // inApp: the connection the message arrived on
	ip     memnet.IPAddr     // inApp, inKernel: the sending machine
	peer   atm.Addr          // inPeer: the sending sighost
	msg    sigmsg.Msg        // inApp, inPeer
	kmsg   kern.KMsg         // inKernel
	timer  *timer            // inTimer
	dialed func(Conn, error) // inDialed: Dial's callback, given conn and err
	err    error
	fn     func()        // inFunc: Crash, Recover, MGMT-side reads, RealHost.Do
	rearm  bool          // sim inKernel: read off /dev/anand, whose read the actor re-arms once handled
	at     time.Duration // real: when it was queued, for rtenv.inbox.wait
}

type inputKind uint8

const (
	inFunc inputKind = iota
	inApp
	inPeer
	inKernel
	inTimer
	inDialed
)

// dispatch runs one input in actor context: it finds the call the input
// names (by cookie, call key, VCI, owner, timer or dial context),
// and step runs the protocol's cell for it. Every input but a function
// is one journal batch; a crashed entity drops application, peer and
// kernel inputs.
func (sh *Sighost) dispatch(in *input) {
	if in.kind == inFunc {
		in.fn()
		return
	}
	defer sh.jflush() // one durable append per dispatch
	switch {
	case in.kind == inTimer:
		// Released first: fn may arm its successor on the same record.
		// A state's timer steps its call (newCall binds its alarm).
		if fn := in.timer.release(); fn != nil {
			fn()
		}
	case in.kind == inDialed:
		in.dialed(in.conn, in.err) // Sighost.dialed
	case sh.down:
		sh.Obs.Counter("sighost.dropped_while_down").Inc()
	case in.kind == inApp:
		sh.fromApp(in)
	case in.kind == inPeer:
		sh.fromPeer(in)
	default:
		sh.fromKernel(in)
	}
}

// HandleKernel dispatches one pseudo-device (or anand-relayed) indication
// from the machine from, for a driver that holds the actor (RealHost.Do).
func (sh *Sighost) HandleKernel(from memnet.IPAddr, k kern.KMsg) {
	in := sh.inputs.Get()
	*in = input{kind: inKernel, ip: from, kmsg: k}
	sh.dispatch(in)
	sh.inputs.Put(in)
}

// react runs the cell for an input sighost makes itself (a timer, a
// dial's result, the reliable channel giving up), with a record from
// its free list: a cell's input escapes into the protocol table.
func (sh *Sighost) react(c *call, on callInput, conn Conn) {
	in := sh.inputs.Get()
	*in = input{conn: conn}
	sh.step(c, on, in)
	sh.inputs.Put(in)
}

// fromApp finds the call an application names by cookie, in the request
// list its message acts on.
func (sh *Sighost) fromApp(in *input) {
	m := &in.msg
	sh.ct.appMsgs.Inc()
	// Application-to-kernel-to-sighost delivery: one switch charged at
	// the sender, one here.
	sh.env.Charge(sh.cm.ContextSwitch)
	sh.emitMsg(evAppRx, "", m)
	switch m.Kind {
	case sigmsg.KindConnectReq:
		sh.step(nil, onConnectReq, in)
	case sigmsg.KindCancelReq:
		sh.step(sh.outgoing[m.Cookie], onCancelReq, in)
	case sigmsg.KindAcceptConn:
		sh.step(sh.incoming[m.Cookie], onAcceptConn, in)
	case sigmsg.KindRejectConn:
		sh.step(sh.incoming[m.Cookie], onRejectConn, in)
	case sigmsg.KindExportSrv:
		sh.handleExport(in.conn, in.ip, *m)
	case sigmsg.KindUnexportSrv:
		sh.handleUnexport(in.conn, *m)
	case sigmsg.KindMgmtQuery:
		sh.handleMgmtQuery(in.conn, *m)
	default:
		sh.sendApp(in.conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "unexpected " + m.Kind.String()})
	}
}

// fromPeer finds the call a peer names by call key, once the reliable
// channel lets its message through.
func (sh *Sighost) fromPeer(in *input) {
	from, m := in.peer, &in.msg
	if sh.rel != nil && from != sh.env.Addr() && !sh.relRecv(from, m) {
		return
	}
	sh.ct.peerMsgs.Inc()
	sh.emitMsg(evPeerRx, from, m)
	key, on := callKey{peer: from, id: m.CallID}, onSetup
	switch m.Kind {
	case sigmsg.KindSetup:
	case sigmsg.KindConnectDone:
		on = onConnectDone
	case sigmsg.KindSetupAck:
		on, key.origin = onSetupAck, true
	case sigmsg.KindSetupRej:
		on, key.origin = onSetupRej, true
	case sigmsg.KindRelease:
		// Call IDs are scoped to the originating sighost, so FromOrigin
		// picks one view: an origin's release tears our destination view,
		// and vice versa (two routers may each originate the same ID).
		on, key.origin = onRelease, !m.FromOrigin
	default:
		return
	}
	sh.step(sh.calls.get(key), on, in)
}

// fromKernel finds the call a kernel indication names by VCI, in
// wait_for_bind or VCI_mapping, or, for a process's exit, by the
// process's outstanding requests.
func (sh *Sighost) fromKernel(in *input) {
	k := &in.kmsg
	sh.ct.kernelMsgs.Inc()
	if sh.traceOn() {
		sh.emit(Event{Kind: evKernRx, ip: in.ip, VCI: uint32(k.VCI), Cookie: uint32(k.Cookie), kmsg: *k})
	}
	on := onClose
	switch k.Kind {
	case kern.MsgBind, kern.MsgConnect:
		on = onBind
	case kern.MsgClose:
	case kern.MsgExit:
		// Exit closes descriptors first, so what remains is §7.2's case,
		// calls still being established: "the termination indication is
		// needed to allow sighost to inform the remote router (or host)
		// that the client no longer exists". They are the process's
		// outgoing_requests, ended newest first.
		var owned []*call
		for _, c := range sh.outgoing {
			if c.ownerPID != 0 && c.ownerPID == k.PID && c.endIP == in.ip {
				owned = append(owned, c)
			}
		}
		for _, c := range slices.Backward(inOrder(owned)) {
			sh.step(c, onExit, in)
		}
		return
	default:
		return
	}
	if int(k.VCI) < len(sh.pvcs) && sh.pvcs[k.VCI] {
		return // signaling's own permanent circuits
	}
	// A close names the call bound to the VCI first, a bind the one waiting
	// (both may hold it: a stale view a lost RELEASE left on a reused VCI),
	// and a bind must carry the cookie of the call it names (§7.1).
	c := sh.vciMap.at(k.VCI)
	if w := sh.waitBind.at(k.VCI); w != nil && (on == onBind || c == nil) {
		c = w
	}
	if on == onBind && c != nil && k.Cookie != c.cookie {
		on = onForgedBind
	}
	sh.step(c, on, in)
}

// step runs the protocol's cell for input on in c's state; c is nil
// when the input names no call this sighost holds (state new).
func (sh *Sighost) step(c *call, on callInput, in *input) {
	from, gen := callNew, uint32(0)
	if c != nil {
		from, gen = c.state, c.gen
	}
	switch cl := protocol[on][from]; {
	case cl.do != nil:
		cl.do(sh, c, in)
	case cl.end != causeOther:
		sh.end(c, cause{code: cl.end})
	default:
		sh.Obs.Counter("sighost.ignored." + stages[from].name + "." + callInputs[on]).Inc()
	}
	if sh.cells != nil {
		sh.cells(c, gen, from, on)
	}
}

// timer is one armed Env.After, in either environment: when its clock
// runs out the record goes through the inbox like any other input, and
// dispatch runs fn unless the timer was canceled in between. A cancel
// always wins, even over a firing already queued behind a busy actor.
// Records are recycled through their timers list at the one point each
// timer ends: its cancel stopping the clock, or dispatch taking its
// firing off the inbox. gen moves on there, so a CancelFunc kept past
// that point does nothing to the record's next user.
type timer struct {
	fn       func()
	gen      uint32
	canceled bool
	list     *timers
	ev       sim.Timer   // sim: the engine event
	rt       *time.Timer // real: made on the record's first arm, Reset after
}

// timers is an env's free list of timer records, and how a firing
// reaches the env's inbox (in real mode, from the runtime timer's
// goroutine).
type timers struct {
	free sim.FreeList[timer]
	put  func(input)
}

// get takes a record for fn from the free list.
func (l *timers) get(fn func()) *timer {
	t := l.free.Get()
	t.list, t.fn, t.canceled = l, fn, false
	return t
}

// fired queues the record's firing; it reads nothing the actor writes.
func (t *timer) fired() { t.list.put(input{kind: inTimer, timer: t}) }

// cancelFunc cancels this arming of the record and no later one.
func (t *timer) cancelFunc() CancelFunc {
	gen := t.gen
	return func() { t.cancel(gen) }
}

// cancel releases the record at once if its clock had not run out;
// otherwise the firing is queued, and dispatch releases it without
// running fn.
func (t *timer) cancel(gen uint32) {
	if t.gen != gen {
		return
	}
	t.canceled = true
	if t.rt != nil && t.rt.Stop() || t.rt == nil && t.ev.Stop() {
		t.release()
	}
}

// release returns the record to its free list and reports what the
// actor should run, nil if the timer was canceled.
func (t *timer) release() (fn func()) {
	if !t.canceled {
		fn = t.fn
	}
	t.fn = nil
	t.gen++
	t.list.free.Put(t)
	return fn
}
