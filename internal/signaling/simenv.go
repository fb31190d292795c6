package signaling

import (
	"fmt"
	"time"

	"xunet/internal/anand"
	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/pfxunet"
	"xunet/internal/prof"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
	"xunet/internal/trace"
	"xunet/internal/xswitch"
)

// SimHost runs a Sighost on a simulated router: an actor process
// draining an inbox of typed inputs, fed by the SigPort listener, the
// local pseudo-device, the anand server, and per-peer PVC readers. All
// handler execution is serialized through the actor, preserving the
// paper's single-threaded select()-driven daemon structure.
type SimHost struct {
	SH     *Sighost
	Stack  *core.Stack
	Fabric *xswitch.Fabric
	Anand  *anand.Server

	// Faults, when non-nil, filters outbound peer signaling messages
	// (loss/duplication/extra delay on the PVC) — the direct "N%
	// signaling loss" knob of the chaos experiments.
	Faults *faults.Plane

	inbox *sim.Queue[input]
	actor *sim.Proc
	peers map[atm.Addr]*pfxunet.Socket
	env   *simEnv
	conns int // application connections accepted or dialed, until their first Close

	// dec serves every receive pump of this host: the pumps are procs of
	// one engine, which never interleave inside DecodeInto, so they share
	// one intern table instead of growing one per connection.
	dec sigmsg.Decoder
}

// AppConns reports the application connections open on this side.
func (h *SimHost) AppConns() int { return h.conns }

// pump counts an application connection open and feeds what arrives on
// it into the actor until the peer closes, then closes this side.
func (h *SimHost) pump(p *sim.Proc, conn *simConn, from memnet.IPAddr) {
	h.conns++
	in := input{kind: inApp, conn: conn, ip: from}
	for {
		b, ok := conn.s.Recv(p)
		if !ok {
			conn.Close()
			return
		}
		if err := h.dec.DecodeInto(&in.msg, b); err != nil {
			continue
		}
		h.inbox.Put(in)
	}
}

// Crash kills the signaling entity in actor context: all state is lost
// and every subsequent input is dropped until Recover. The PVC readers,
// listeners, and device pumps stay up — they model the machine, not the
// process.
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
	h := &SimHost{
		Stack:  stack,
		Fabric: fab,
		inbox:  sim.NewQueue[input](),
		peers:  make(map[atm.Addr]*pfxunet.Socket),
	}
	h.env = &simEnv{h: h, dialName: stack.M.Name + "/sighost-dial"}
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
	e := stack.M.E

	// Actor loop.
	h.actor = e.Go(stack.M.Name+"/sighost", func(p *sim.Proc) {
		for {
			in, ok := h.inbox.Get(p)
			if !ok {
				return
			}
			h.SH.dispatch(&in)
			if in.waiter != nil {
				in.waiter.Unpark()
			}
		}
	})

	// Application RPC listener on the well-known signaling port.
	e.Go(stack.M.Name+"/sighost-listen", func(p *sim.Proc) {
		l, err := stack.M.IP.ListenStream(SigPort)
		if err != nil {
			return
		}
		pumpName := stack.M.Name + "/sighost-conn"
		for {
			conn, ok := l.Accept(p)
			if !ok {
				return
			}
			e.Go(pumpName, func(p *sim.Proc) {
				h.pump(p, &simConn{h: h, s: conn}, conn.RemoteAddr())
			})
		}
	})

	// Local pseudo-device reader (the router's own kernel indications).
	// The handoff is synchronous: the reader does not take the next
	// message off the device until the actor has processed the current
	// one, exactly like a select()-driven daemon. While the daemon is
	// busy, indications back up in the device's bounded buffer — the
	// loss mechanism of §10.
	e.Go(stack.M.Name+"/sighost-anand", func(p *sim.Proc) {
		for {
			k, ok := stack.M.Dev.ReadUp(p)
			if !ok {
				return
			}
			h.inbox.Put(input{kind: inKernel, ip: stack.M.IP.Addr, kmsg: k, waiter: p})
			p.Park()
		}
	})

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
// entities and starts their PVC reader processes.
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

// connectOneWay builds the a-to-b signaling PVC.
func connectOneWay(a, b *SimHost) error {
	vc, err := a.Fabric.SetupVC(a.Stack.Addr, b.Stack.Addr, signalingPVCQoS)
	if err != nil {
		return fmt.Errorf("signaling: PVC %s->%s: %w", a.Stack.Addr, b.Stack.Addr, err)
	}
	a.SH.AllowPVC(vc.SrcVCI)
	b.SH.AllowPVC(vc.DstVCI)
	// Sender side: a PF_XUNET socket connected to the PVC.
	a.Stack.M.Spawn("sighost-pvc-tx", func(p *kern.Proc) {
		s, err := a.Stack.PF.Socket(p)
		if err != nil {
			return
		}
		if err := s.Connect(vc.SrcVCI, 0); err != nil {
			return
		}
		a.peers[b.Stack.Addr] = s
		p.SP.Park() // hold the socket open for the daemon's lifetime
	})
	// Receiver side: a PF_XUNET socket bound to the PVC, pumping frames
	// into b's actor.
	from := a.Stack.Addr
	b.Stack.M.Spawn("sighost-pvc-rx", func(p *kern.Proc) {
		s, err := b.Stack.PF.Socket(p)
		if err != nil {
			return
		}
		if err := s.Bind(vc.DstVCI, 0); err != nil {
			return
		}
		in := input{kind: inPeer, peer: from}
		var raw []byte // the decoder copies what it keeps: one buffer serves every frame
		for {
			frame, err := s.RecvChain()
			if err != nil {
				return
			}
			raw = frame.AppendTo(raw[:0])
			frame.Release()
			if err := b.dec.DecodeInto(&in.msg, raw); err != nil {
				continue
			}
			b.inbox.Put(in)
		}
	})
	return nil
}

// simConn adapts a memnet stream to the signaling Conn interface. Send
// runs in actor context, so it borrows the env's scratch buffer
// (Stream.Send copies the frame before returning).
type simConn struct {
	h      *SimHost
	s      *memnet.Stream
	closed bool
}

func (c *simConn) Send(m sigmsg.Msg) error { return c.s.Send(c.h.env.enc(&m)) }

func (c *simConn) Close() {
	if !c.closed {
		c.closed, c.h.conns = true, c.h.conns-1
	}
	c.s.Close()
}

// simEnv implements Env on the simulation.
type simEnv struct {
	h        *SimHost
	dialName string // name of the procs Dial spawns
	timers   timers // recycled After records
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
		e.h.actor.Sleep(d)
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

func (e *simEnv) Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error)) {
	h := e.h
	h.Stack.M.E.Go(e.dialName, func(p *sim.Proc) {
		s, err := h.Stack.M.IP.DialStream(p, ip, port)
		if err != nil {
			h.inbox.Put(input{kind: inDialed, dialed: cb, err: err})
			return
		}
		conn := &simConn{h: h, s: s}
		h.inbox.Put(input{kind: inDialed, dialed: cb, conn: conn})
		// Keep pumping replies (ACCEPT_CONN etc.) into the actor.
		h.pump(p, conn, ip)
	})
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
