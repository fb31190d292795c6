package signaling

import (
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
)

// This file pins the control-plane fast path at zero heap allocations
// per steady-state call. benchEnv is a purpose-built Env whose every
// operation is allocation-free after warm-up: pooled timers with
// pre-bound cancel closures, pooled VC handles with pre-bound Release,
// a reused delivery ring, and a full codec round-trip (AppendTo into a
// reused buffer, DecodeInto with string interning) on every peer
// message — so the gate covers the state machine, the journal batch
// path, and the wire codec together.

type benchDelivery struct {
	dst  *Sighost
	from atm.Addr
	m    sigmsg.Msg
}

type benchWorld struct {
	hosts map[atm.Addr]*Sighost
	queue []benchDelivery
	head  int
}

// pump drains the delivery ring; handlers may enqueue more while it
// runs. The backing array is retained across calls.
func (w *benchWorld) pump() {
	for w.head < len(w.queue) {
		d := w.queue[w.head]
		w.head++
		d.dst.peerMsg(d.from, d.m)
	}
	w.queue = w.queue[:0]
	w.head = 0
}

// benchTimer is a pooled timer cell. Time never advances in this
// harness, so timers only need to be cancelable; the pre-bound cancel
// returns the cell to the pool.
type benchTimer struct {
	env    *benchEnv
	live   bool
	next   *benchTimer
	cancel CancelFunc
}

// benchVC is a pooled VC handle. The VCI is assigned once when the
// cell is created, so live handles always carry distinct VCIs.
type benchVC struct {
	h    VCHandle
	env  *benchEnv
	next *benchVC
}

// benchConn is the single reusable app connection per env; it records
// the latest message of each kind the driver needs to read back.
type benchConn struct{ env *benchEnv }

func (c *benchConn) Send(m sigmsg.Msg) error {
	switch m.Kind {
	case sigmsg.KindIncomingConn:
		c.env.lastIncoming = m
	case sigmsg.KindVCIForConn:
		c.env.lastVCI = m
	case sigmsg.KindConnFailed:
		c.env.failed++
	}
	return nil
}

func (c *benchConn) Close() {}

type benchEnv struct {
	w    *benchWorld
	addr atm.Addr
	ip   memnet.IPAddr
	rnd  uint32

	conn    *benchConn
	tmPool  *benchTimer
	vcPool  *benchVC
	nextVCI atm.VCI
	timers  int // live (armed, not yet canceled) timers

	dec sigmsg.Decoder

	lastIncoming sigmsg.Msg
	lastVCI      sigmsg.Msg
	failed       int
}

func (e *benchEnv) Addr() atm.Addr         { return e.addr }
func (e *benchEnv) LocalIP() memnet.IPAddr { return e.ip }
func (e *benchEnv) Charge(time.Duration)   {}
func (e *benchEnv) Now() time.Duration     { return 0 }

func (e *benchEnv) Rand16() uint16 {
	e.rnd = e.rnd*1664525 + 1013904223
	return uint16(e.rnd >> 16)
}

func (e *benchEnv) After(d time.Duration, what string, fn func()) CancelFunc {
	t := e.tmPool
	if t == nil {
		t = &benchTimer{env: e}
		t.cancel = func() {
			if !t.live {
				return
			}
			t.live = false
			t.env.timers--
			t.next = t.env.tmPool
			t.env.tmPool = t
		}
	} else {
		e.tmPool = t.next
	}
	t.live = true
	e.timers++
	return t.cancel
}

// SendPeer decodes the frame with a reused decoder, then queues the
// decoded copy, mirroring the PVC path.
func (e *benchEnv) SendPeer(dst atm.Addr, m sigmsg.Msg, raw []byte) error {
	var rt sigmsg.Msg
	if err := e.dec.DecodeInto(&rt, raw); err != nil {
		return err
	}
	sh, ok := e.w.hosts[dst]
	if !ok {
		return errBenchNoPeer
	}
	e.w.queue = append(e.w.queue, benchDelivery{dst: sh, from: e.addr, m: rt})
	return nil
}

func (e *benchEnv) Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error)) {
	cb(e.conn, nil)
}

func (e *benchEnv) SetupVC(dst atm.Addr, q qos.QoS) (*VCHandle, error) {
	v := e.vcPool
	if v == nil {
		v = &benchVC{env: e}
		e.nextVCI++
		v.h.SrcVCI, v.h.DstVCI = e.nextVCI, e.nextVCI
		v.h.Release = func() {
			v.next = v.env.vcPool
			v.env.vcPool = v
		}
	} else {
		e.vcPool = v.next
	}
	return &v.h, nil
}

func (e *benchEnv) KernelDisconnect(memnet.IPAddr, atm.VCI) {}

var errBenchNoPeer = &benchErr{}

type benchErr struct{}

func (*benchErr) Error() string { return "bench: no such peer" }

// newBenchPair builds two journaling sighosts over benchEnvs with the
// echo service exported on B.
func newBenchPair() (*benchWorld, *Sighost, *Sighost, *benchEnv, *benchEnv) {
	w := &benchWorld{hosts: map[atm.Addr]*Sighost{}}
	envA := &benchEnv{w: w, addr: "a.rt", ip: memnet.IP4(10, 0, 0, 1), rnd: 1}
	envB := &benchEnv{w: w, addr: "b.rt", ip: memnet.IP4(10, 0, 0, 2), rnd: 2}
	envA.conn = &benchConn{env: envA}
	envB.conn = &benchConn{env: envB}
	shA := New(envA, CostModel{BindTimeout: time.Minute})
	shB := New(envB, CostModel{BindTimeout: time.Minute})
	shA.EnableJournal(0)
	shB.EnableJournal(0)
	w.hosts[envA.addr] = shA
	w.hosts[envB.addr] = shB
	shB.appMsg(envB.conn, envB.ip, sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: "echo", NotifyPort: 6000})
	return w, shA, shB, envA, envB
}

// driveOneCall runs one full setup -> bind -> teardown cycle and
// verifies it actually completed. Every step must be allocation-free
// in steady state.
func driveOneCall(t *testing.T, w *benchWorld, shA, shB *Sighost, envA, envB *benchEnv) {
	envA.lastVCI = sigmsg.Msg{}
	envB.lastVCI = sigmsg.Msg{}
	envB.lastIncoming = sigmsg.Msg{}

	shA.appMsg(envA.conn, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7000})
	w.pump()
	if envB.lastIncoming.Kind == 0 {
		t.Fatal("no INCOMING_CONN reached the server")
	}
	shB.appMsg(envB.conn, envB.ip, sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: envB.lastIncoming.Cookie})
	w.pump()
	cli, srv := envA.lastVCI, envB.lastVCI
	if cli.Kind == 0 || srv.Kind == 0 {
		t.Fatal("VCI_FOR_CONN missing on one side")
	}
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgConnect, VCI: cli.VCI, Cookie: cli.Cookie})
	shB.HandleKernel(envB.ip, kern.KMsg{Kind: kern.MsgBind, VCI: srv.VCI, Cookie: srv.Cookie})
	w.pump()
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cli.VCI})
	w.pump()
	if envA.failed != 0 || envB.failed != 0 {
		t.Fatalf("CONN_FAILED during steady-state drive (a=%d b=%d)", envA.failed, envB.failed)
	}
}

// TestSteadyStateCallAllocs is the allocs/op gate from DESIGN.md §12:
// after warm-up (pools populated, maps at size, journal past its first
// compaction, codec interner primed), a complete signaling round trip
// — CONNECT_REQ through bind to teardown, across two hosts with
// journaling on — performs zero heap allocations.
func TestSteadyStateCallAllocs(t *testing.T) {
	w, shA, shB, envA, envB := newBenchPair()

	// Warm-up: enough calls to take both journals through at least one
	// compaction cycle and settle every pool at its high-water mark.
	for i := 0; i < 1500; i++ {
		driveOneCall(t, w, shA, shB, envA, envB)
	}

	avg := testing.AllocsPerRun(300, func() {
		driveOneCall(t, w, shA, shB, envA, envB)
	})
	if avg != 0 {
		t.Fatalf("steady-state setup->bind->teardown allocates %.2f times per call, want 0", avg)
	}

	// The cycle must actually have torn everything down: no leaked call
	// state, no armed timers, no live VC handles outside the pools.
	if n := shA.calls.len() + shB.calls.len(); n != 0 {
		t.Fatalf("%d calls leaked after teardown", n)
	}
	if envA.timers != 0 || envB.timers != 0 {
		t.Fatalf("timers leaked: a=%d b=%d", envA.timers, envB.timers)
	}
	snap := shA.Obs.Snapshot()
	if c := snap.Count("sighost.journal.compactions"); c == 0 {
		t.Fatal("warm-up never compacted the journal; gate did not cover compaction steady state")
	}
}

// BenchmarkTransitionOverhead/disabled is a `make detgate` gate, like
// the trace, faults and obs ones: handing a record on with no hook set
// costs under 5 ns, so the hook every transition passes, which only
// tests set, costs a call's state changes a nil check each.
func BenchmarkTransitionOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		_, sh, _, _, _ := newBenchPair()
		tr := Transition{Call: callKey{peer: "b.rt", id: 1}, From: callNew, To: callWaitServer}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh.handOff(tr)
		}
		b.StopTimer()
		// Enforce the budget only on a real measurement run; the N=1
		// discovery run is all fixed overhead.
		if avg := float64(b.Elapsed().Nanoseconds()) / float64(b.N); b.N >= 1_000_000 && avg > 5 {
			b.Fatalf("handing on a record with no hook set costs %.1f ns, budget is 5 ns", avg)
		}
	})
}
