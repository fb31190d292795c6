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
// single-threaded select()-driven daemon: one process, the actor,
// draining an inbox of typed inputs. The SigPort listener, application
// connections, the local pseudo-device, the anand server and the PVC
// sockets each hand an arrival to the inbox in the event that delivers
// it, so no process stands between the wire and the actor.
type SimHost struct {
	SH     *Sighost
	Stack  *core.Stack
	Fabric *xswitch.Fabric
	Anand  *anand.Server

	// Faults, when non-nil, filters outbound peer signaling messages
	// (loss/duplication/extra delay on the PVC) — the direct "N%
	// signaling loss" knob of the chaos experiments.
	Faults *faults.Plane

	inbox sim.Queue[input]
	proc  *kern.Proc // the actor, owner of the PVC sockets
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
// keepalive chain — and no dial in flight or consumer queued behind the
// actor on its inbox.
func (h *SimHost) Audit(check sim.Audit) {
	sh, pending, armed := h.SH, 0, 0
	for _, c := range sh.calls {
		if stages[c.state].timeout != nil {
			armed++
		}
	}
	if sh.rel != nil {
		for _, lk := range sh.rel.links {
			pending += len(lk.unacked)
			if lk.kaOn {
				armed++
			}
		}
		check("pending messages", sh.rel.pmPool.Outstanding(), pending)
	}
	check("calls", sh.callPool.Outstanding(), len(sh.calls))
	check("dial contexts", sh.dcPool.Outstanding(), 0)
	check("timers", h.env.timers.free.Outstanding(), armed+pending)
	check("inbox waiters", h.inbox.Waiting(), 0)
}

// Crash kills the signaling entity in actor context: all state is lost
// and every subsequent input is dropped until Recover. The delivery
// hooks — listener, connection and PVC receivers, the device's armed
// read — stay in place: they model the machine, not the process.
func (h *SimHost) Crash() { h.inbox.Put(input{fn: h.SH.Crash}) }

// Recover restarts the entity in actor context (journal replay,
// remaining-deadline bind timers, teardown of calls lost mid-setup).
func (h *SimHost) Recover() { h.inbox.Put(input{fn: h.SH.Recover}) }

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
	h := &SimHost{Stack: stack, Fabric: fab, peers: make(map[atm.Addr]*pfxunet.Socket)}
	h.env = &simEnv{h: h}
	h.env.timers.put = func(in input) { h.inbox.Put(in) }
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
	// read one indication at a time: the actor re-arms the read only
	// once it has processed the current one, exactly like a
	// select()-driven daemon. While the daemon is busy, indications back
	// up in the device's bounded buffer — the loss mechanism of §10.
	dev := stack.M.Dev
	devUp := func(k kern.KMsg, ok bool) {
		if ok {
			h.inbox.Put(input{kind: inKernel, ip: stack.M.IP.Addr, kmsg: k, rearm: true})
		}
	}
	h.proc = stack.M.Spawn("sighost", func(p *kern.Proc) {
		for in, ok := h.inbox.Get(p.SP); ok; in, ok = h.inbox.Get(p.SP) {
			h.SH.dispatch(&in)
			if in.rearm {
				dev.Arm(devUp)
			}
		}
	})
	dev.Arm(devUp)

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
			h.inbox.Put(input{kind: inKernel, ip: from, kmsg: k})
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
	in := input{kind: inPeer, peer: a.Stack.Addr}
	tx := a.Stack.PF.KernelSocket(a.proc, nil)
	rx := b.Stack.PF.KernelSocket(b.proc, func(frame *mbuf.Chain) {
		b.raw = frame.AppendTo(b.raw[:0])
		frame.Release()
		if b.dec.DecodeInto(&in.msg, b.raw) == nil {
			b.inbox.Put(in)
		}
	})
	if err := cmp.Or(tx.Connect(vc.SrcVCI, 0), rx.Bind(vc.DstVCI, 0)); err != nil {
		return fmt.Errorf("signaling: PVC %s->%s: %w", a.Stack.Addr, b.Stack.Addr, err)
	}
	a.peers[b.Stack.Addr] = tx
	return nil
}

// simConn adapts a memnet stream to the signaling Conn interface, and is
// the stream's receiver: it decodes each message into its own input
// template for the actor, and closes its side at end of stream. Send
// runs in actor context, so it borrows the env's scratch buffer
// (Stream.Send copies the frame before returning).
type simConn struct {
	h      *SimHost
	s      *memnet.Stream
	in     input // inApp on this connection; dialed holds Env.Dial's callback
	closed bool
}

// newConn makes the connection record for s, to the machine at ip.
func (h *SimHost) newConn(s *memnet.Stream, ip memnet.IPAddr) *simConn {
	c := &simConn{h: h, s: s}
	c.in = input{kind: inApp, conn: c, ip: ip}
	return c
}

func (c *simConn) Send(m sigmsg.Msg) error { return c.s.Send(c.h.env.enc(&m)) }

func (c *simConn) Close() {
	if !c.closed {
		c.closed, c.h.conns = true, c.h.conns-1
	}
	c.s.Close()
}

// Deliver hands one message to the actor, if it decodes.
func (c *simConn) Deliver(b []byte) {
	if c.h.dec.DecodeInto(&c.in.msg, b) == nil {
		c.h.inbox.Put(c.in)
	}
}

// EOF closes this side once the application has closed or reset its.
func (c *simConn) EOF() { c.Close() }

// Dialed is Env.Dial's completion, the actor's inDialed input: the
// connection on success, the error otherwise.
func (c *simConn) Dialed(err error) {
	in := input{kind: inDialed, dialed: c.in.dialed, err: err}
	if err == nil {
		c.h.conns++
		in.conn = c
	}
	c.h.inbox.Put(in)
}

// simEnv implements Env on the simulation.
type simEnv struct {
	h      *SimHost
	timers timers // recycled After records
	// txBuf is the encode scratch for actor-context sends; every
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

func (e *simEnv) Addr() atm.Addr     { return e.h.Stack.Addr }
func (e *simEnv) Rand16() uint16     { return uint16(e.h.Stack.M.E.Rand().Uint64()) }
func (e *simEnv) Now() time.Duration { return e.h.Stack.M.E.Now() }

// Charge makes the actor busy for d; events queue behind it, exactly as
// a single-threaded daemon backs up.
func (e *simEnv) Charge(d time.Duration) {
	if d > 0 {
		e.h.proc.SP.Sleep(d)
	}
}

func (e *simEnv) After(d time.Duration, what string, fn func()) CancelFunc {
	t := e.timers.get(fn)
	eng := e.h.Stack.M.E
	t.ev = eng.ScheduleArgL(d, e.timerLabel(eng, what), simTimerFire, t)
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

// SendPeer encodes into the env's scratch buffer and sends that frame,
// so a cached retransmission and a first send draw the same fault-plane
// verdict sequence.
func (e *simEnv) SendPeer(dst atm.Addr, m sigmsg.Msg) error {
	return e.SendPeerRaw(dst, m, e.enc(&m))
}

func (e *simEnv) SendPeerRaw(dst atm.Addr, m sigmsg.Msg, raw []byte) error {
	if dst == e.h.Stack.Addr {
		e.h.inbox.Put(input{kind: inPeer, peer: dst, msg: m})
		return nil
	}
	sock, ok := e.h.peers[dst]
	if !ok {
		return fmt.Errorf("signaling: no PVC to %s", dst)
	}
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

// Dial sends the SYN now; the handshake's end reaches the actor as an
// inDialed input, and what the application sends back as inApp ones.
func (e *simEnv) Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error)) {
	c := e.h.newConn(nil, ip)
	c.in.dialed = cb
	var err error
	if c.s, err = e.h.Stack.M.IP.Dial(ip, port, c); err != nil {
		c.Dialed(err)
	}
}

func (e *simEnv) SetupVC(dst atm.Addr, q qos.QoS) (*VCHandle, error) {
	vc, err := e.h.Fabric.SetupVC(e.h.Stack.Addr, dst, q)
	if err != nil {
		return nil, err
	}
	return &VCHandle{
		SrcVCI:  vc.SrcVCI,
		DstVCI:  vc.DstVCI,
		Cost:    vc.SetupCost(),
		Release: vc.Release,
	}, nil
}

func (e *simEnv) KernelDisconnect(endpoint memnet.IPAddr, vci atm.VCI) {
	if endpoint == e.h.Stack.M.IP.Addr || endpoint == 0 {
		e.h.Stack.M.Dev.WriteDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: vci})
		return
	}
	if e.h.Anand != nil {
		e.h.Anand.Disconnect(endpoint, vci)
	}
}
