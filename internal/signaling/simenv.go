package signaling

import (
	"cmp"
	"fmt"
	"time"

	"xunet/internal/anand"
	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/pfxunet"
	"xunet/internal/prof"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
	"xunet/internal/trace"
	"xunet/internal/xswitch"
)

// SimHost runs a Sighost on a simulated router as the paper's
// single-threaded select()-driven daemon: an actor that runs each input
// of its inbox to completion in an engine event. The SigPort listener,
// application connections, the local pseudo-device, the anand server and
// the PVC sockets each hand an arrival to the inbox in the event that
// delivers it. Sighost's charges advance the actor's clock: the next
// input starts when they end, a timer armed after one counts from the
// clock, and an output made past the engine's clock waits for it.
type SimHost struct {
	SH     *Sighost
	Stack  *core.Stack
	Fabric *xswitch.Fabric
	Anand  *anand.Server

	// Faults, when non-nil, filters outbound peer signaling messages
	// (loss/duplication/extra delay on the PVC) — the direct "N%
	// signaling loss" knob of the chaos experiments.
	Faults *faults.Plane

	inbox sim.Ring[*input]      // SH.inputs records, the running one too: a drain is pending while any is
	busy  time.Duration         // the actor's clock: when its last charge ends
	out   sim.Ring[output]      // outputs due past the engine's clock, in time order
	label prof.LabelID          // proc.sighost, the actor's events' attribution
	devUp func(kern.KMsg, bool) // the /dev/anand read the actor arms

	proc  *kern.Proc // the daemon's process, owner of the PVC sockets
	peers map[atm.Addr]*pfxunet.Socket
	env   *simEnv
	conns int // application connections accepted or dialed, until their first Close

	// dec and raw serve every receiver of this host: receivers run in
	// events of one engine, which never interleave inside DecodeInto, so
	// they share one intern table, and the PVC frames one flat buffer
	// (the decoder copies what it keeps).
	dec sigmsg.Decoder
	raw []byte
}

// AppConns reports the application connections open on this side.
func (h *SimHost) AppConns() int { return h.conns }

// Audit states the entity's free lists: a call record per call held, a
// pending message per one unacknowledged, a timer per one armed — each
// timed state's, each pending message's retransmit and each running
// keepalive chain — no dial in flight, and an input per inbox entry.
func (h *SimHost) Audit(check sim.Audit) {
	sh, pending, armed := h.SH, 0, 0
	for _, c := range sh.calls.all() {
		if stages[c.state].timeout != nil {
			armed++
		}
	}
	if sh.rel != nil {
		for _, lk := range sh.rel.links {
			pending += lk.unacked.Len()
			if lk.kaOn {
				armed++
			}
		}
		check("pending messages", sh.rel.pmPool.Outstanding(), pending)
	}
	check("calls", sh.callPool.Outstanding(), sh.calls.len())
	check("dial contexts", sh.dcPool.Outstanding(), 0)
	check("timers", h.env.timers.free.Outstanding(), armed+pending)
	check("inputs", sh.inputs.Outstanding(), h.inbox.Len())
}

// input draws an inbox record of kind, the rest zero, for a source to
// decode a message into; put queues a copy of in.
func (h *SimHost) input(kind inputKind) *input {
	r := h.SH.inputs.Get()
	*r = input{kind: kind}
	return r
}

func (h *SimHost) put(in input) {
	r := h.SH.inputs.Get()
	*r = in
	h.queue(r)
}

// queue appends r to the inbox and, unless one is pending, schedules a
// drain for when the actor's clock allows.
func (h *SimHost) queue(r *input) {
	if h.inbox.Push(r); h.inbox.Len() == 1 {
		h.wake()
	}
}

// wake schedules a drain at the actor's clock, or now if that has passed.
func (h *SimHost) wake() { h.Stack.M.E.ScheduleArgL(h.busy-h.Stack.M.E.Now(), h.label, simDrain, h) }

// simDrain is the actor: it runs the inbox's inputs in order, each to
// completion, until one finds its clock past the engine's. Until it
// re-arms /dev/anand's read, indications back up there: §10's loss.
func simDrain(arg any) {
	h := arg.(*SimHost)
	for h.inbox.Len() > 0 {
		if h.busy > h.Stack.M.E.Now() {
			h.wake()
			return
		}
		in := *h.inbox.Head()
		h.SH.dispatch(in)
		if in.rearm {
			h.output(output{kind: outRearm})
		}
		h.inbox.Drop()
		h.SH.inputs.Put(in)
	}
}

// outKind names what an output does.
type outKind uint8

const (
	outPeer       outKind = iota // SendPeer: msg to dst, from raw if set
	outSend                      // simConn.Send: msg on conn
	outClose                     // simConn.Close
	outDial                      // Dial: conn to its ip and port
	outDisconnect                // KernelDisconnect: vci at ip
	outRelease                   // VCHandle.Release: vc
	outRearm                     // the /dev/anand read's re-arm
)

// output is one of the actor's Env outputs, kept by value in the outbox
// until its instant when made past the engine's clock.
type output struct {
	at   time.Duration
	kind outKind
	msg  sigmsg.Msg
	raw  []byte
	dst  atm.Addr
	conn *simConn
	ip   memnet.IPAddr
	port uint16
	vci  atm.VCI
	vc   *xswitch.VC
}

// output makes o at the actor's clock: now, or from the outbox, which
// one event per distinct instant flushes. An output made now reports
// its error.
func (h *SimHost) output(o output) error {
	e := h.Stack.M.E
	if h.busy <= e.Now() {
		return h.perform(&o)
	}
	if o.at, o.raw = h.busy, nil; h.out.Len() == 0 || h.out.Tail().at != o.at {
		e.ScheduleArgL(o.at-e.Now(), h.label, simFlush, h)
	}
	h.out.Push(o) // without raw, the caller's again once SendPeer returns
	return nil
}

// simFlush makes the outputs due now, in the order the actor made them.
// An error reaches no one: the handler that made the output has returned.
func simFlush(arg any) {
	h := arg.(*SimHost)
	for now := h.Stack.M.E.Now(); h.out.Len() > 0 && h.out.Head().at <= now; h.out.Drop() {
		_ = h.perform(h.out.Head()) // which queues inputs, never outputs
	}
}

// perform makes o now.
func (h *SimHost) perform(o *output) error {
	switch o.kind {
	case outPeer:
		return h.env.sendPeer(o.dst, &o.msg, o.raw)
	case outSend:
		return o.conn.s.Send(h.env.enc(&o.msg))
	case outClose:
		o.conn.close()
	case outDial:
		var err error
		if o.conn.s, err = h.Stack.M.IP.Dial(o.conn.ip, o.port, o.conn); err != nil {
			o.conn.Dialed(err)
		}
	case outDisconnect:
		if o.ip == h.Stack.M.IP.Addr || o.ip == 0 {
			h.Stack.M.Dev.WriteDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: o.vci})
		} else if h.Anand != nil {
			h.Anand.Disconnect(o.ip, o.vci)
		}
	case outRelease:
		o.vc.Release()
	case outRearm:
		h.Stack.M.Dev.Arm(h.devUp)
	}
	return nil
}

// Crash kills the signaling entity in actor context: all state is lost
// and every subsequent input is dropped until Recover. The delivery
// hooks — listener, connection and PVC receivers, the device's armed
// read — stay in place: they model the machine, not the process.
func (h *SimHost) Crash() { h.put(input{fn: h.SH.Crash}) }

// Recover restarts the entity in actor context (journal replay,
// remaining-deadline bind timers, teardown of calls lost mid-setup).
func (h *SimHost) Recover() { h.put(input{fn: h.SH.Recover}) }

// CrashFor crashes the entity now and schedules its recovery after d.
func (h *SimHost) CrashFor(d time.Duration) {
	h.Crash()
	h.Stack.M.E.Schedule(d, func() { h.Recover() })
}

// signalingPVCQoS reserves a little guaranteed bandwidth for each
// signaling PVC.
var signalingPVCQoS = qos.QoS{Class: qos.CBR, BandwidthKbs: 64}

// StartSim launches a signaling entity on a router stack. The entity's
// cost model derives from the machine's. Call ConnectSighosts to join
// entities with signaling PVCs before establishing inter-router calls.
func StartSim(stack *core.Stack, fab *xswitch.Fabric) *SimHost {
	h := &SimHost{Stack: stack, Fabric: fab, peers: make(map[atm.Addr]*pfxunet.Socket),
		label: stack.M.E.ProfLabel("proc.sighost")}
	h.env = &simEnv{h: h}
	h.env.timers.put = h.put
	// Share the machine's registry so sighost metrics land next to the
	// kernel and device metrics in one mgmt-visible snapshot.
	h.SH = NewWithObs(h.env, CostModel{
		ContextSwitch:   stack.M.CM.ContextSwitch,
		CallLogging:     stack.M.CM.CallLogging,
		TeardownLogging: stack.M.CM.CallLogging / 5,
		BindTimeout:     stack.M.CM.BindTimeout,
		LoggingEnabled:  true,
	}, stack.M.Obs)
	// The machine's collector (shared testbed-wide) receives the span
	// tree; nil leaves tracing off.
	h.SH.TraceC = stack.M.TraceC

	// The local pseudo-device (the router's own kernel indications) is
	// read one indication at a time, as a select()-driven daemon reads
	// it: the actor re-arms the read once it has run the current one.
	h.devUp = func(k kern.KMsg, ok bool) {
		if ok {
			h.put(input{kind: inKernel, ip: stack.M.IP.Addr, kmsg: k, rearm: true})
		}
	}
	h.proc = stack.M.Spawn("sighost", nil)
	stack.M.Dev.Arm(h.devUp)

	// Application RPC listener on the well-known signaling port.
	if l, err := stack.M.IP.ListenStream(SigPort); err == nil {
		l.OnAccept(func(s *memnet.Stream) memnet.Receiver {
			h.conns++
			return h.newConn(s, s.RemoteAddr())
		})
	}

	// anand server for IP-connected hosts.
	srv, err := anand.StartServer(stack, AnandPort)
	if err == nil {
		h.Anand = srv
		srv.OnKernel = func(from memnet.IPAddr, k kern.KMsg) {
			h.put(input{kind: inKernel, ip: from, kmsg: k})
		}
	}
	return h
}

// ConnectSighosts provisions duplex signaling PVCs between two
// entities: the sockets at both ends, held for each actor outside its
// descriptor table, are opened, connected and bound here.
func ConnectSighosts(a, b *SimHost) error {
	if err := connectOneWay(a, b); err != nil {
		return err
	}
	if err := connectOneWay(b, a); err != nil {
		return err
	}
	// With reliability armed, pre-create each side's peer link so its
	// retransmit-backlog metric exists from the start of the run.
	a.SH.PrimePeer(b.Stack.Addr)
	b.SH.PrimePeer(a.Stack.Addr)
	return nil
}

// connectOneWay builds the a-to-b signaling PVC: a's PF_XUNET socket
// connected to it, and b's bound to it, whose frames go to b's actor.
func connectOneWay(a, b *SimHost) error {
	vc, err := a.Fabric.SetupVC(a.Stack.Addr, b.Stack.Addr, signalingPVCQoS)
	if err != nil {
		return fmt.Errorf("signaling: PVC %s->%s: %w", a.Stack.Addr, b.Stack.Addr, err)
	}
	a.SH.AllowPVC(vc.SrcVCI)
	b.SH.AllowPVC(vc.DstVCI)
	from := a.Stack.Addr
	tx := a.Stack.PF.KernelSocket(a.proc, nil)
	rx := b.Stack.PF.KernelSocket(b.proc, func(frame *mbuf.Chain) {
		b.raw = frame.AppendTo(b.raw[:0])
		frame.Release()
		in := b.input(inPeer)
		if in.peer = from; b.dec.DecodeInto(&in.msg, b.raw) != nil {
			b.SH.inputs.Put(in)
			return
		}
		b.queue(in)
	})
	if err := cmp.Or(tx.Connect(vc.SrcVCI, 0), rx.Bind(vc.DstVCI, 0)); err != nil {
		return fmt.Errorf("signaling: PVC %s->%s: %w", a.Stack.Addr, b.Stack.Addr, err)
	}
	a.peers[b.Stack.Addr] = tx
	return nil
}

// simConn adapts a memnet stream to the signaling Conn interface, and is
// the stream's receiver: it decodes each message into an inbox record
// for the actor, and closes its side at end of stream. Send and Close
// are outputs; a send borrows the env's scratch buffer (Stream.Send
// copies the frame before returning).
type simConn struct {
	h      *SimHost
	s      *memnet.Stream
	ip     memnet.IPAddr     // the machine at the other end
	dialed func(Conn, error) // Env.Dial's callback, on a dialed connection
	closed bool
}

// newConn makes the connection record for s, to the machine at ip.
func (h *SimHost) newConn(s *memnet.Stream, ip memnet.IPAddr) *simConn {
	return &simConn{h: h, s: s, ip: ip}
}

func (c *simConn) Send(m sigmsg.Msg) error { return c.h.output(output{kind: outSend, conn: c, msg: m}) }

func (c *simConn) Close() { c.h.output(output{kind: outClose, conn: c}) }

func (c *simConn) close() {
	if !c.closed {
		c.closed, c.h.conns = true, c.h.conns-1
	}
	c.s.Close()
}

// Deliver hands one message to the actor, if it decodes.
func (c *simConn) Deliver(b []byte) {
	in := c.h.input(inApp)
	if in.conn, in.ip = c, c.ip; c.h.dec.DecodeInto(&in.msg, b) != nil {
		c.h.SH.inputs.Put(in)
		return
	}
	c.h.queue(in)
}

// EOF closes this side once the application has closed or reset its.
func (c *simConn) EOF() { c.close() }

// Dialed is Env.Dial's completion, the actor's inDialed input: the
// connection on success, the error otherwise.
func (c *simConn) Dialed(err error) {
	in := c.h.input(inDialed)
	if in.dialed, in.err = c.dialed, err; err == nil {
		c.h.conns++
		in.conn = c
	}
	c.h.queue(in)
}

// simEnv implements Env on the simulation, with outputs at the actor's
// clock (SimHost.output).
type simEnv struct {
	h      *SimHost
	timers timers // recycled After records
	// txBuf is the encode scratch for application and PVC sends; every
	// consumer copies the frame synchronously, so one buffer serves all.
	txBuf []byte
	// lblTimer caches interned profiler labels per timer class (see
	// timerLabel); nil until a profiler is attached and a timer arms.
	lblTimer map[string]prof.LabelID
}

// enc encodes m into the reusable scratch buffer.
func (e *simEnv) enc(m *sigmsg.Msg) []byte {
	e.txBuf = m.AppendTo(e.txBuf[:0])
	return e.txBuf
}

func (e *simEnv) Addr() atm.Addr { return e.h.Stack.Addr }
func (e *simEnv) Rand16() uint16 { return uint16(e.h.Stack.M.E.Rand().Uint64()) }

// Now is the actor's clock: the engine's, or past it by the charges of
// the input being run.
func (e *simEnv) Now() time.Duration { return max(e.h.Stack.M.E.Now(), e.h.busy) }

// Charge makes the actor busy for d: its clock moves on, and inputs
// queue behind it, exactly as a single-threaded daemon backs up.
func (e *simEnv) Charge(d time.Duration) {
	if d > 0 {
		e.h.busy = e.Now() + d
	}
}

// After counts d from the actor's clock.
func (e *simEnv) After(d time.Duration, what string, fn func()) CancelFunc {
	t := e.timers.get(fn)
	eng := e.h.Stack.M.E
	t.ev = eng.ScheduleArgL(e.Now()-eng.Now()+d, e.timerLabel(eng, what), simTimerFire, t)
	return t.cancelFunc()
}

func simTimerFire(arg any) { arg.(*timer).fired() }

// timerLabel resolves the profiler label for a sighost timer class
// ("rel.rto", "rel.keepalive", "bind.timeout" → "sighost.<what>").
// The per-env cache keeps the armed-profiler path allocation-free
// after each class's first arm; with no profiler it is one nil check.
func (e *simEnv) timerLabel(eng *sim.Engine, what string) prof.LabelID {
	p := eng.Prof()
	if p == nil {
		return 0
	}
	if l, ok := e.lblTimer[what]; ok {
		return l
	}
	if e.lblTimer == nil {
		e.lblTimer = make(map[string]prof.LabelID, 4)
	}
	l := p.Label("sighost." + what)
	e.lblTimer[what] = l
	return l
}

func (e *simEnv) SendPeer(dst atm.Addr, m sigmsg.Msg, raw []byte) error {
	if _, ok := e.h.peers[dst]; !ok && dst != e.h.Stack.Addr {
		return fmt.Errorf("signaling: no PVC to %s", dst)
	}
	return e.h.output(output{kind: outPeer, dst: dst, msg: m, raw: raw})
}

// sendPeer sends m on the PVC to dst, from raw or, when raw is nil, a
// fresh encoding, or onto the actor's own inbox for the local loopback.
// A cached retransmission and a first send draw the same fault-plane
// verdict sequence.
func (e *simEnv) sendPeer(dst atm.Addr, m *sigmsg.Msg, raw []byte) error {
	if dst == e.h.Stack.Addr {
		e.h.put(input{kind: inPeer, peer: dst, msg: *m})
		return nil
	}
	if raw == nil {
		raw = e.enc(m)
	}
	sock := e.h.peers[dst]
	// The message's own trace context (if any) parents the PVC frame's
	// transit span — the PVC socket is shared by many calls, so the
	// context is per-message, not per-socket.
	tc := trace.Context{Trace: m.TraceID, Span: m.SpanID}
	if fp := e.h.Faults; fp != nil {
		v := fp.SigMsg(tc)
		if v.Drop {
			return nil // swallowed by the wire; reliability must repair it
		}
		if v.ExtraDelay > 0 {
			// The caller may overwrite raw once we return; the deferred
			// send needs its own copy.
			cp := append([]byte(nil), raw...)
			e.h.Stack.M.E.Schedule(v.ExtraDelay, func() { _ = sock.SendTraced(cp, tc) })
			return nil
		}
		if v.Dup {
			_ = sock.SendTraced(raw, tc)
		}
	}
	return sock.SendTraced(raw, tc)
}

// Dial's SYN is an output; the handshake's end reaches the actor as an
// inDialed input, and what the application sends back as inApp ones.
func (e *simEnv) Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error)) {
	c := e.h.newConn(nil, ip)
	c.dialed = cb
	e.h.output(output{kind: outDial, conn: c, port: port})
}

// SetupVC programs the circuit now; its release is an output.
func (e *simEnv) SetupVC(dst atm.Addr, q qos.QoS) (*VCHandle, error) {
	vc, err := e.h.Fabric.SetupVC(e.h.Stack.Addr, dst, q)
	if err != nil {
		return nil, err
	}
	return &VCHandle{
		SrcVCI:  vc.SrcVCI,
		DstVCI:  vc.DstVCI,
		Cost:    vc.SetupCost(),
		Release: func() { e.h.output(output{kind: outRelease, vc: vc}) },
	}, nil
}

func (e *simEnv) KernelDisconnect(endpoint memnet.IPAddr, vci atm.VCI) {
	e.h.output(output{kind: outDisconnect, ip: endpoint, vci: vci})
}
