package signaling

// In-package unit tests for the robustness machinery: the reliable peer
// channel (sequence numbers, ack-driven retransmission with capped
// exponential backoff, dedup, keepalive death), the crash-recovery
// journal, and the bind-timer hygiene audit the chaos issue demands
// (every teardown path must clear both the wait_for_bind entry and its
// timer — a stale timer firing after the cookie is gone must be a
// no-op).
//
// The harness replaces the simulator with a deterministic toy world: a
// controllable clock, inspectable timers, and an in-memory peer queue
// that can be partitioned. That makes assertions about *which* timer
// exists at *which* deadline possible, which the full sim hides.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
)

type fakeTimer struct {
	owner    *fakeEnv
	at       time.Duration
	seq      int
	fn       func()
	canceled bool
	fired    bool
}

type delivery struct {
	from, to atm.Addr
	m        sigmsg.Msg
}

// world holds the shared clock, timer list and peer wire.
type world struct {
	t        *testing.T
	now      time.Duration
	timerSeq int
	timers   []*fakeTimer
	queue    []delivery
	drop     bool // partition: peer messages vanish in flight
	hosts    map[atm.Addr]*Sighost
}

func newWorld(t *testing.T) *world {
	return &world{t: t, hosts: make(map[atm.Addr]*Sighost)}
}

// pump drains the peer wire until quiescent.
func (w *world) pump() {
	for len(w.queue) > 0 {
		d := w.queue[0]
		w.queue = w.queue[1:]
		if sh, ok := w.hosts[d.to]; ok {
			sh.peerMsg(d.from, d.m)
		}
	}
}

// deliverOne delivers the first message in flight.
func (w *world) deliverOne() {
	d := w.queue[0]
	w.queue = w.queue[1:]
	w.hosts[d.to].peerMsg(d.from, d.m)
}

// advance fires due timers in deadline order (ties by creation order),
// pumping the wire after each, then sets the clock to target.
func (w *world) advance(target time.Duration) {
	for {
		var next *fakeTimer
		for _, tm := range w.timers {
			if tm.canceled || tm.fired || tm.at > target {
				continue
			}
			if next == nil || tm.at < next.at || (tm.at == next.at && tm.seq < next.seq) {
				next = tm
			}
		}
		if next == nil {
			break
		}
		w.now = next.at
		next.fired = true
		// The firing is its owner's input, as in the real envs.
		w.hosts[next.owner.addr].dispatch(&input{kind: inTimer, timer: (&timers{}).get(next.fn)})
		w.pump()
	}
	w.now = target
}

type fakeConn struct {
	msgs   []sigmsg.Msg
	closed bool
}

func (c *fakeConn) Send(m sigmsg.Msg) error { c.msgs = append(c.msgs, m); return nil }
func (c *fakeConn) Close()                  { c.closed = true }

type sentRec struct {
	at  time.Duration
	dst atm.Addr
	m   sigmsg.Msg
}

type fakeEnv struct {
	w    *world
	addr atm.Addr
	ip   memnet.IPAddr

	randCtr     uint16
	nextVCI     atm.VCI
	released    []atm.VCI
	disconnects []atm.VCI
	conns       []*fakeConn
	sent        []sentRec // every SendPeer, including dropped ones
	refuse      uint16    // a notify port whose dials fail
	vcErr       error     // when set, SetupVC fails with it
}

func (e *fakeEnv) Addr() atm.Addr         { return e.addr }
func (e *fakeEnv) LocalIP() memnet.IPAddr { return e.ip }
func (e *fakeEnv) Charge(d time.Duration) {}
func (e *fakeEnv) Rand16() uint16         { e.randCtr++; return e.randCtr }
func (e *fakeEnv) Now() time.Duration     { return e.w.now }

func (e *fakeEnv) After(d time.Duration, what string, fn func()) CancelFunc {
	e.w.timerSeq++
	tm := &fakeTimer{owner: e, at: e.w.now + d, seq: e.w.timerSeq, fn: fn}
	e.w.timers = append(e.w.timers, tm)
	return func() { tm.canceled = true }
}

// SendPeer checks raw is a faithful encoding of m, then records and
// delivers it, so every assertion on sent records covers
// retransmissions of the cached frame too.
func (e *fakeEnv) SendPeer(dst atm.Addr, m sigmsg.Msg, raw []byte) error {
	if dec, err := sigmsg.Decode(raw); err != nil || dec != m {
		e.w.t.Fatalf("SendPeer: frame mismatch: %+v vs %+v (err %v)", dec, m, err)
	}
	e.sent = append(e.sent, sentRec{at: e.w.now, dst: dst, m: m})
	if e.w.drop {
		return nil // lost on the wire; the send itself succeeded
	}
	if _, ok := e.w.hosts[dst]; !ok {
		return fmt.Errorf("no PVC to %s", dst)
	}
	e.w.queue = append(e.w.queue, delivery{from: e.addr, to: dst, m: m})
	return nil
}

func (e *fakeEnv) Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error)) {
	if port == e.refuse {
		cb(nil, fmt.Errorf("connection refused by port %d", port))
		return
	}
	c := &fakeConn{}
	e.conns = append(e.conns, c)
	cb(c, nil)
}

func (e *fakeEnv) SetupVC(dst atm.Addr, q qos.QoS) (*VCHandle, error) {
	if e.vcErr != nil {
		return nil, e.vcErr
	}
	e.nextVCI++
	v := e.nextVCI + 100
	return &VCHandle{SrcVCI: v, DstVCI: v, Release: func() { e.released = append(e.released, v) }}, nil
}

func (e *fakeEnv) KernelDisconnect(endpoint memnet.IPAddr, vci atm.VCI) {
	e.disconnects = append(e.disconnects, vci)
}

// lastMsg finds the most recent application message of the given kind
// across every connection the env dialed or served.
func (e *fakeEnv) lastMsg(k sigmsg.Kind) (sigmsg.Msg, bool) {
	for i := len(e.conns) - 1; i >= 0; i-- {
		for j := len(e.conns[i].msgs) - 1; j >= 0; j-- {
			if e.conns[i].msgs[j].Kind == k {
				return e.conns[i].msgs[j], true
			}
		}
	}
	return sigmsg.Msg{}, false
}

// countSent counts SendPeer calls of one kind.
func (e *fakeEnv) countSent(k sigmsg.Kind) int {
	n := 0
	for _, s := range e.sent {
		if s.m.Kind == k {
			n++
		}
	}
	return n
}

// pair builds two connected sighosts a.rt / b.rt with the given bind
// timeout, reliability config (zero RelConfig leaves reliability off)
// and journal flag.
func pair(t *testing.T, bindTO time.Duration, rel *RelConfig, journal bool) (*world, *Sighost, *Sighost, *fakeEnv, *fakeEnv) {
	w := newWorld(t)
	envA := &fakeEnv{w: w, addr: "a.rt", ip: memnet.IP4(10, 0, 0, 1)}
	envB := &fakeEnv{w: w, addr: "b.rt", ip: memnet.IP4(10, 0, 0, 2)}
	shA := New(envA, CostModel{BindTimeout: bindTO})
	shB := New(envB, CostModel{BindTimeout: bindTO})
	if rel != nil {
		shA.EnableReliability(*rel)
		shB.EnableReliability(*rel)
	}
	if journal {
		shA.EnableJournal(0)
		shB.EnableJournal(0)
	}
	w.hosts["a.rt"] = shA
	w.hosts["b.rt"] = shB
	return w, shA, shB, envA, envB
}

// records decodes the durable log back into record structs. Unflushed
// batch records are not included (they are not durable yet).
func (j *journal) records() []jrec {
	var out []jrec
	for b := j.buf; len(b) > 0; {
		r, n, err := decodeJrec(b, j.vcs)
		if err != nil {
			break
		}
		out = append(out, r)
		b = b[n:]
	}
	return out
}

// checkBindInvariant is the audit: live (unfired, uncanceled) timers
// owned by env whose purpose is wait_for_bind must exactly match the
// waitBind list. With reliability off every sighost timer IS a bind
// timer, so the count comparison is exact.
func checkBindInvariant(t *testing.T, w *world, sh *Sighost, env *fakeEnv) {
	t.Helper()
	live := 0
	for _, tm := range w.timers {
		if tm.owner == env && !tm.canceled && !tm.fired {
			live++
		}
	}
	if live != sh.waitBind.n {
		t.Fatalf("%s: %d live timers but %d wait_for_bind entries", sh.env.Addr(), live, sh.waitBind.n)
	}
	for vci, c := range sh.waitBind.tab {
		if c == nil {
			continue
		}
		if c.cookie == 0 {
			t.Fatalf("%s: wait_for_bind VCI %d has no cookie", sh.env.Addr(), vci)
		}
		if c.state == callReleased {
			t.Fatalf("%s: wait_for_bind VCI %d points at a released call", sh.env.Addr(), vci)
		}
	}
}

// openCall drives one call from a client on A to service svc on B up to
// the point where both sides handed out VCIs (established, unbound).
// Returns the client conn, the client's granted VCI/cookie and the
// server's granted VCI/cookie.
func openCall(t *testing.T, w *world, shA, shB *Sighost, envA, envB *fakeEnv, svc string) (cliVCI atm.VCI, cliCookie uint16, srvVCI atm.VCI, srvCookie uint16) {
	t.Helper()
	appConn := &fakeConn{}
	shA.appMsg(appConn, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: svc, NotifyPort: 7000})
	w.pump()
	// Server got INCOMING_CONN; accept it.
	inc, ok := envB.lastMsg(sigmsg.KindIncomingConn)
	if !ok {
		t.Fatal("no INCOMING_CONN reached the server")
	}
	shB.appMsg(&fakeConn{}, envB.ip, sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: inc.Cookie})
	w.pump()
	vfc, ok := envA.lastMsg(sigmsg.KindVCIForConn)
	if !ok {
		t.Fatal("client never got VCI_FOR_CONN")
	}
	svfc, ok := envB.lastMsg(sigmsg.KindVCIForConn)
	if !ok {
		t.Fatal("server never got VCI_FOR_CONN")
	}
	return vfc.VCI, vfc.Cookie, svfc.VCI, svfc.Cookie
}

// bindBoth authenticates both endpoints' bind/connect indications.
func bindBoth(w *world, shA, shB *Sighost, envA, envB *fakeEnv, cliVCI atm.VCI, cliCookie uint16, srvVCI atm.VCI, srvCookie uint16) {
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgConnect, VCI: cliVCI, Cookie: cliCookie})
	shB.HandleKernel(envB.ip, kern.KMsg{Kind: kern.MsgBind, VCI: srvVCI, Cookie: srvCookie})
	w.pump()
}

func exportEcho(t *testing.T, shB *Sighost, envB *fakeEnv, svc string) {
	t.Helper()
	shB.appMsg(&fakeConn{}, envB.ip, sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: svc, NotifyPort: 6000})
}

// TestBindTimerAudit walks every teardown path and asserts the
// waitBind/timer pairing never leaks: entry and timer die together, and
// stale timers fire as no-ops.
func TestBindTimerAudit(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, 5*time.Second, nil, false)
	exportEcho(t, shB, envB, "echo")

	check := func() {
		checkBindInvariant(t, w, shA, envA)
		checkBindInvariant(t, w, shB, envB)
	}

	// Path 1: bind success, then socket close.
	cv, cc, sv, sc := openCall(t, w, shA, shB, envA, envB, "echo")
	check()
	if shA.waitBind.n != 1 || shB.waitBind.n != 1 {
		t.Fatalf("expected one wait_for_bind entry per side, got %d/%d", shA.waitBind.n, shB.waitBind.n)
	}
	bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)
	check()
	if shA.waitBind.n != 0 || shA.vciMap.n != 1 {
		t.Fatalf("bind did not move the entry to VCI_mapping")
	}
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cv})
	w.pump()
	check()
	if shA.calls.len() != 0 || shB.calls.len() != 0 {
		t.Fatalf("close did not tear down both sides: %d/%d calls", shA.calls.len(), shB.calls.len())
	}

	// Path 2: bind timeout on both sides.
	openCall(t, w, shA, shB, envA, envB, "echo")
	check()
	torn := shA.Obs.Snapshot().Count("sighost.calls.torn")
	w.advance(w.now + 6*time.Second)
	check()
	if shA.waitBind.n != 0 || shB.waitBind.n != 0 || shA.calls.len() != 0 || shB.calls.len() != 0 {
		t.Fatal("bind timeout left state behind")
	}
	if shA.Obs.Snapshot().Count("sighost.calls.torn") == torn {
		t.Fatal("bind timeout tore nothing down")
	}
	if shA.Obs.Snapshot().Count("sighost.bind_timeouts") == 0 {
		t.Fatal("bind timeout not counted")
	}

	// Path 3: cookie authentication failure.
	cv, cc, _, _ = openCall(t, w, shA, shB, envA, envB, "echo")
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgConnect, VCI: cv, Cookie: cc + 1})
	w.pump()
	check()
	if shA.Obs.Snapshot().Count("sighost.auth_failures") == 0 {
		t.Fatal("auth failure not counted")
	}
	if shA.calls.len() != 0 {
		t.Fatal("auth failure did not tear the call")
	}
	w.advance(w.now + 6*time.Second) // stale timer would fire here
	check()

	// Path 4: client cancel before the server answers, then a late
	// accept arriving for the dead call.
	appConn := &fakeConn{}
	shA.appMsg(appConn, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7000})
	w.pump()
	reqID := appConn.msgs[0]
	if reqID.Kind != sigmsg.KindReqID {
		t.Fatalf("first app reply = %v", reqID.Kind)
	}
	shA.appMsg(appConn, envA.ip, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: reqID.Cookie})
	w.pump()
	check()
	inc, _ := envB.lastMsg(sigmsg.KindIncomingConn)
	shB.appMsg(&fakeConn{}, envB.ip, sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: inc.Cookie})
	w.pump() // SETUP_ACK for the canceled call must be ignored
	check()
	if shA.calls.len() != 0 || shA.waitBind.n != 0 {
		t.Fatal("late SETUP_ACK resurrected a canceled call")
	}

	// Nothing may be left anywhere.
	if shA.CookieCount() != 0 || shB.CookieCount() != 0 {
		t.Fatalf("cookies leaked: %d/%d", shA.CookieCount(), shB.CookieCount())
	}
	w.advance(w.now + time.Minute)
	check()
}

// TestStaleViewReleaseSparesRegrant loses a RELEASE, so the destination
// keeps a bound view of a call the origin has ended, and the fabric
// grants the VCI again. Ending the stale view must leave the new call
// alone: its server's bind still authenticates, and no disconnect names
// the VCI the new call maps.
func TestStaleViewReleaseSparesRegrant(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, time.Minute, nil, false)
	exportEcho(t, shB, envB, "echo")
	cv, cc, sv, sc := openCall(t, w, shA, shB, envA, envB, "echo")
	bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)
	w.drop = true // the client's close reaches A; A's RELEASE never reaches B
	shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cv})
	w.drop = false
	if shB.vciMap.n != 1 {
		t.Fatal("precondition: B dropped its view without the RELEASE")
	}
	envA.nextVCI-- // the fabric re-grants the freed VCI
	cv2, cc2, sv2, sc2 := openCall(t, w, shA, shB, envA, envB, "echo")
	if sv2 != sv || shB.CookieCount() != 1 {
		t.Fatalf("precondition: re-grant on VCI %d (want %d), %d cookies", sv2, sv, shB.CookieCount())
	}
	// The stale view's server closes its socket, then the new server binds.
	shB.HandleKernel(envB.ip, kern.KMsg{Kind: kern.MsgClose, VCI: sv})
	bindBoth(w, shA, shB, envA, envB, cv2, cc2, sv2, sc2)
	if slices.Contains(envB.disconnects, sv) {
		t.Fatalf("disconnects %v: the stale view's end shut VCI %d, which the new call maps", envB.disconnects, sv)
	}
	if c := shB.vciMap.at(sv); c == nil || c.cookie != sc2 || shB.Obs.Snapshot().Count("sighost.auth_failures") != 0 {
		t.Fatalf("the new call's bind was refused: view %+v, %d auth failures", c, shB.Obs.Snapshot().Count("sighost.auth_failures"))
	}
	if shA.CookieCount() != 1 || shB.CookieCount() != 1 {
		t.Fatalf("cookies = %d/%d, want one live call each", shA.CookieCount(), shB.CookieCount())
	}
}

// TestRetransmitBackoffAndExhaustion partitions the wire and checks the
// exact retransmission schedule (RTO, 2RTO, 4RTO, capped), then the
// retry-budget teardown with client notification.
func TestRetransmitBackoffAndExhaustion(t *testing.T) {
	rel := RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 3}
	w, shA, _, envA, _ := pair(t, time.Minute, &rel, false)
	w.drop = true // every peer message vanishes

	shA.appMsg(&fakeConn{}, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7000})
	w.advance(10 * time.Second)

	var setupAt []time.Duration
	for _, s := range envA.sent {
		if s.m.Kind == sigmsg.KindSetup {
			setupAt = append(setupAt, s.at)
		}
	}
	want := []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond, 700 * time.Millisecond}
	if len(setupAt) != len(want) {
		t.Fatalf("SETUP sent %d times at %v, want %d", len(setupAt), setupAt, len(want))
	}
	for i := range want {
		if setupAt[i] != want[i] {
			t.Fatalf("retransmit %d at %v, want %v (schedule %v)", i, setupAt[i], want[i], setupAt)
		}
	}
	snap := shA.Obs.Snapshot()
	if got := snap.Count("sighost.rel.retransmits"); got != 3 {
		t.Errorf("retransmits = %d, want 3", got)
	}
	if got := snap.Count("sighost.rel.exhausted"); got != 1 {
		t.Errorf("exhausted = %d, want 1", got)
	}
	if shA.calls.len() != 0 || len(shA.outgoing) != 0 {
		t.Error("exhausted call not torn down")
	}
	fail, ok := envA.lastMsg(sigmsg.KindConnFailed)
	if !ok || fail.Reason != "signaling retransmit budget exhausted" {
		t.Errorf("client notification = %+v, ok=%v", fail, ok)
	}
	// No timers may be left running.
	for _, tm := range w.timers {
		if !tm.canceled && !tm.fired {
			t.Fatalf("stuck timer at %v after exhaustion", tm.at)
		}
	}
}

// TestCancelStopsSetupRetransmits silences the peer and has the client
// cancel while its call is in setup_sent: the call's SETUP stops
// retransmitting, the link holds only the RELEASE, which names no call
// and keeps retrying, and the keepalive peer death drops that too.
func TestCancelStopsSetupRetransmits(t *testing.T) {
	rel := RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 10, KeepaliveEvery: time.Second, KeepaliveMisses: 3}
	w, shA, _, envA, _ := pair(t, time.Minute, &rel, false)
	w.drop = true
	conn := &fakeConn{}
	shA.appMsg(conn, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7000})
	w.advance(150 * time.Millisecond)
	for _, c := range shA.calls.all() {
		if c.state != callSetupSent {
			t.Fatalf("precondition: call in %s, want setup_sent", stages[c.state].name)
		}
	}
	if n := envA.countSent(sigmsg.KindSetup); shA.calls.len() != 1 || n != 2 {
		t.Fatalf("precondition: %d calls, SETUP sent %d times, want 1 call and 2 sends", shA.calls.len(), n)
	}
	retx := shA.Obs.Snapshot().Count("sighost.rel.retransmits")
	shA.appMsg(conn, envA.ip, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: conn.msgs[0].Cookie})
	lk := shA.rel.links["b.rt"]
	if lk.unacked.Len() != 1 {
		t.Fatalf("%d messages pending after the cancel, want the RELEASE alone", lk.unacked.Len())
	}
	for _, pm := range lk.unacked.All() {
		if pm.m.Kind != sigmsg.KindRelease {
			t.Fatalf("pending after the cancel: %v, want RELEASE", pm.m.Kind)
		}
	}

	w.advance(2500 * time.Millisecond)
	if n := envA.countSent(sigmsg.KindSetup); n != 2 {
		t.Errorf("SETUP sent %d times, want 2: it kept retransmitting after its call ended", n)
	}
	releases := envA.countSent(sigmsg.KindRelease)
	if got := shA.Obs.Snapshot().Count("sighost.rel.retransmits") - retx; releases < 2 || got != uint64(releases-1) {
		t.Errorf("%d retransmits since the cancel, want the RELEASE's %d resends alone", got, releases-1)
	}
	if lk.unacked.Len() != 1 {
		t.Fatalf("%d messages pending before the peer died, want the RELEASE", lk.unacked.Len())
	}

	// Three silent keepalive periods from the SETUP at 0 kill the peer
	// at 3 s, with two of the RELEASE's retries still to run.
	w.advance(3100 * time.Millisecond)
	if got := shA.Obs.Snapshot().Count("sighost.rel.peer_deaths"); got != 1 {
		t.Fatalf("peer deaths = %d, want 1", got)
	}
	if lk.unacked.Len() != 0 {
		t.Errorf("%d messages pending after the peer died", lk.unacked.Len())
	}
	for _, tm := range w.timers {
		if !tm.canceled && !tm.fired {
			t.Fatalf("timer left running at %v after the peer died", tm.at)
		}
	}
}

// TestReliableFlowAcksAndDedup runs a clean reliable call and then
// replays a sequenced message, checking dedup and always-ack.
func TestReliableFlowAcksAndDedup(t *testing.T) {
	rel := RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 3}
	w, shA, shB, envA, envB := pair(t, time.Minute, &rel, false)
	exportEcho(t, shB, envB, "echo")
	cv, cc, sv, sc := openCall(t, w, shA, shB, envA, envB, "echo")
	bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)

	// All reliable messages must be acked: no unacked state anywhere.
	for _, sh := range []*Sighost{shA, shB} {
		for peer, lk := range sh.rel.links {
			if lk.unacked.Len() != 0 {
				t.Fatalf("%s: %d unacked messages to %s after clean flow", sh.env.Addr(), lk.unacked.Len(), peer)
			}
		}
	}
	if shA.Obs.Snapshot().Count("sighost.rel.acks") == 0 {
		t.Fatal("no acks received on the origin side")
	}

	// Replay: a duplicated SETUP (same seq, same epoch) must be consumed
	// by the dedup window, not processed, and acked again.
	lk := shB.rel.links["a.rt"]
	dupSeq := uint32(1) // the first seq delivered
	acksBefore := envB.countSent(sigmsg.KindPeerAck)
	dupsBefore := shB.Obs.Snapshot().Count("sighost.rel.dups")
	callsBefore := shB.calls.len()
	shB.peerMsg("a.rt", sigmsg.Msg{Kind: sigmsg.KindSetup, CallID: 1, Service: "echo", Seq: dupSeq, Epoch: lk.rxEpoch})
	w.pump()
	if got := shB.Obs.Snapshot().Count("sighost.rel.dups"); got != dupsBefore+1 {
		t.Errorf("dups = %d, want %d", got, dupsBefore+1)
	}
	if shB.calls.len() != callsBefore {
		t.Error("duplicate SETUP created call state")
	}
	if got := envB.countSent(sigmsg.KindPeerAck); got != acksBefore+1 {
		t.Errorf("duplicate was not re-acked: %d acks, want %d", got, acksBefore+1)
	}

	// Stale epoch: a message from a pre-crash incarnation is dropped.
	staleBefore := shB.Obs.Snapshot().Count("sighost.rel.stale_epoch")
	shB.peerMsg("a.rt", sigmsg.Msg{Kind: sigmsg.KindSetup, CallID: 77, Service: "echo", Seq: 99, Epoch: lk.rxEpoch - 1})
	w.pump()
	if got := shB.Obs.Snapshot().Count("sighost.rel.stale_epoch"); got != staleBefore+1 {
		t.Errorf("stale_epoch = %d, want %d", got, staleBefore+1)
	}
	if shB.calls.get(callKey{peer: "a.rt", id: 77, origin: false}) != nil {
		t.Error("stale-epoch SETUP created call state")
	}
}

// TestKeepaliveDeclaresPeerDead partitions the wire under an established
// call and checks the miss-threshold death cascade of §7.
func TestKeepaliveDeclaresPeerDead(t *testing.T) {
	rel := RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 10,
		KeepaliveEvery: time.Second, KeepaliveMisses: 2}
	w, shA, shB, envA, envB := pair(t, time.Minute, &rel, false)
	exportEcho(t, shB, envB, "echo")
	cv, cc, sv, sc := openCall(t, w, shA, shB, envA, envB, "echo")
	bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)
	if shA.calls.len() != 1 || shB.calls.len() != 1 {
		t.Fatalf("setup failed: %d/%d calls", shA.calls.len(), shB.calls.len())
	}

	w.drop = true
	w.advance(w.now + 10*time.Second)

	for _, sh := range []*Sighost{shA, shB} {
		if got := sh.Obs.Snapshot().Count("sighost.rel.peer_deaths"); got != 1 {
			t.Errorf("%s: peer_deaths = %d, want 1", sh.env.Addr(), got)
		}
		if sh.calls.len() != 0 || sh.vciMap.n != 0 || sh.CookieCount() != 0 {
			t.Errorf("%s: death cascade left state: calls=%d vciMap=%d cookies=%d",
				sh.env.Addr(), sh.calls.len(), sh.vciMap.n, sh.CookieCount())
		}
	}
	// The dead circuit must be disconnected at the endpoints.
	if len(envA.disconnects) == 0 || len(envB.disconnects) == 0 {
		t.Error("peer death did not disconnect endpoint sockets")
	}
	// Keepalives actually flowed before the declaration.
	if envA.countSent(sigmsg.KindKeepalive) == 0 {
		t.Error("no keepalive probes were sent")
	}
	// The world must drain: no timers stuck re-arming forever.
	w.advance(w.now + 30*time.Second)
	for _, tm := range w.timers {
		if !tm.canceled && !tm.fired {
			t.Fatalf("stuck timer at %v after peer death", tm.at)
		}
	}
}

// TestCrashRecovery exercises the journal: a bound call survives the
// crash, a granted-but-unbound call gets its timer re-armed with the
// REMAINING deadline, and a mid-establishment call is torn down with
// client notification and a peer RELEASE.
func TestCrashRecovery(t *testing.T) {
	rel := RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 10}
	w, shA, shB, envA, envB := pair(t, 5*time.Second, &rel, true)
	exportEcho(t, shB, envB, "echo")
	exportEcho(t, shB, envB, "slow")

	// Call 1: fully bound.
	cv1, cc1, sv1, sc1 := openCall(t, w, shA, shB, envA, envB, "echo")
	bindBoth(w, shA, shB, envA, envB, cv1, cc1, sv1, sc1)
	// Call 2: granted to the client but never bound. Its bind deadline
	// is now+5s.
	cv2, _, _, _ := openCall(t, w, shA, shB, envA, envB, "echo")
	grantAt := w.now
	// Call 3: mid-establishment — the server has not answered yet.
	shA.appMsg(&fakeConn{}, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "slow", NotifyPort: 7003})
	w.pump()

	if shA.calls.len() != 3 {
		t.Fatalf("precondition: %d calls on A, want 3", shA.calls.len())
	}

	// Crash A one second into call 2's bind window.
	w.advance(grantAt + time.Second)
	shA.Crash()
	if !shA.down {
		t.Fatal("Crash did not mark the entity down")
	}
	if shA.calls.len() != 0 || shA.waitBind.n != 0 || shA.CookieCount() != 0 {
		t.Fatal("crash left volatile state")
	}
	// Input while down is dropped.
	shA.peerMsg("b.rt", sigmsg.Msg{Kind: sigmsg.KindKeepalive})
	if shA.Obs.Snapshot().Count("sighost.dropped_while_down") == 0 {
		t.Error("input during outage was not dropped")
	}

	// Recover one more second in: call 2 has 3s of its window left.
	w.advance(grantAt + 2*time.Second)
	shA.Recover()
	snap := shA.Obs.Snapshot()
	if got := snap.Count("sighost.recovered.bound"); got != 1 {
		t.Errorf("recovered.bound = %d, want 1", got)
	}
	if got := snap.Count("sighost.recovered.wait_bind"); got != 1 {
		t.Errorf("recovered.wait_bind = %d, want 1", got)
	}
	if got := snap.Count("sighost.recovery.aborted_calls"); got != 1 {
		t.Errorf("recovery.aborted_calls = %d, want 1", got)
	}
	// Call 1 must be live and bound again.
	if c := shA.vciMap.at(cv1); c == nil || c.state != callBound {
		t.Error("bound call did not survive recovery")
	}
	if got, want := shA.vciMap.at(cv1).cookie, cc1; got != want {
		t.Errorf("recovered cookie = %d, want %d", got, want)
	}
	// Call 3's abort notified the client and released the peer.
	if fail, ok := envA.lastMsg(sigmsg.KindConnFailed); !ok || fail.Reason != "signaling entity restarted" {
		t.Errorf("client abort notification = %+v ok=%v", fail, ok)
	}
	w.pump()
	if shB.calls.get(callKey{peer: "a.rt", id: 3, origin: false}) != nil {
		t.Error("peer kept the aborted call after RELEASE")
	}

	// Call 2's re-armed timer must fire at the ORIGINAL deadline
	// (grantAt+5s), not a fresh full window.
	c2 := shA.waitBind.at(cv2)
	if c2 == nil {
		t.Fatal("granted call missing from wait_for_bind after recovery")
	}
	if c2.deadline != grantAt+5*time.Second {
		t.Errorf("re-armed deadline = %v, want %v", c2.deadline, grantAt+5*time.Second)
	}
	w.advance(grantAt + 4900*time.Millisecond)
	if shA.waitBind.at(cv2) == nil {
		t.Fatal("bind timer fired early after recovery")
	}
	w.advance(grantAt + 5100*time.Millisecond)
	if shA.waitBind.at(cv2) != nil {
		t.Fatal("re-armed bind timer never fired")
	}

	// New incarnation: fresh sends carry a bumped epoch.
	shA.appMsg(&fakeConn{}, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7004})
	var lastSetup sigmsg.Msg
	for _, s := range envA.sent {
		if s.m.Kind == sigmsg.KindSetup {
			lastSetup = s.m
		}
	}
	if lastSetup.Epoch != 2 {
		t.Errorf("post-recovery SETUP epoch = %d, want 2", lastSetup.Epoch)
	}
	// And the call-ID allocator did not rewind.
	if lastSetup.CallID <= 3 {
		t.Errorf("post-recovery call ID %d reuses pre-crash space", lastSetup.CallID)
	}
}

// TestRecoveryExpiredDeadline crashes past a granted call's bind
// deadline: recovery must tear it down immediately rather than re-arm a
// dead timer.
func TestRecoveryExpiredDeadline(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, time.Second, nil, true)
	exportEcho(t, shB, envB, "echo")
	openCall(t, w, shA, shB, envA, envB, "echo")
	shA.Crash()
	w.advance(w.now + 10*time.Second) // outage outlives the bind window
	shA.Recover()
	if shA.waitBind.n != 0 || shA.calls.len() != 0 {
		t.Fatal("expired grant survived recovery")
	}
	if shA.Obs.Snapshot().Count("sighost.bind_timeouts") == 0 {
		t.Error("expired grant not counted as a bind timeout")
	}
}

// TestJournalCompaction drives many short-lived calls through a tiny
// journal and checks the log stays bounded via compaction.
func TestJournalCompaction(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, time.Minute, nil, false)
	shA.EnableJournal(16)
	shB.EnableJournal(16)
	exportEcho(t, shB, envB, "echo")
	for i := 0; i < 20; i++ {
		cv, cc, sv, sc := openCall(t, w, shA, shB, envA, envB, "echo")
		bindBoth(w, shA, shB, envA, envB, cv, cc, sv, sc)
		shA.HandleKernel(envA.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cv})
		w.pump()
	}
	if shA.jr.n > 16 {
		t.Errorf("journal grew past its bound: %d records", shA.jr.n)
	}
	snap := shA.Obs.Snapshot()
	if snap.Count("sighost.journal.compactions") == 0 {
		t.Error("journal never compacted")
	}
	// Records land batched, at most one durable append per dispatch.
	if a, b := snap.Count("sighost.journal.appends"), snap.Count("sighost.journal.batches"); b == 0 || b > a {
		t.Errorf("appends=%d batches=%d: batching not in effect", a, b)
	}
	// After 20 clean calls the compacted log holds only the export.
	shA.compactJournal()
	for _, r := range shA.jr.records() {
		if r.op != jExport {
			t.Errorf("dead call record op=%d survived compaction", r.op)
		}
	}
}

// TestRetransmitEncodeOnce drops every frame and asserts the codec runs
// exactly once per distinct reliable message, no matter how many times
// the retry machinery resends each one.
func TestRetransmitEncodeOnce(t *testing.T) {
	rel := RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 3}
	w, shA, _, envA, _ := pair(t, time.Minute, &rel, false)
	w.drop = true // every peer message vanishes, so everything retries

	shA.appMsg(&fakeConn{}, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7000})
	w.advance(10 * time.Second)

	distinct := make(map[uint32]bool)
	total := 0
	for _, s := range envA.sent {
		if s.m.Seq != 0 { // sequenced = went through the reliable path
			distinct[s.m.Seq] = true
			total++
		}
	}
	if total <= len(distinct) {
		t.Fatalf("scenario produced no retransmissions (%d sends, %d distinct)", total, len(distinct))
	}
	if got := shA.Obs.Snapshot().Count("sighost.rel.encodes"); got != uint64(len(distinct)) {
		t.Errorf("encodes = %d, want %d (one per distinct message across %d sends)", got, len(distinct), total)
	}
}

// TestSecondAcceptIgnored: a server that answers ACCEPT_CONN twice puts
// one SETUP_ACK on the wire. The second accept finds the call already
// accepted, so it is ignored and counted.
func TestSecondAcceptIgnored(t *testing.T) {
	w, shA, shB, envA, envB := pair(t, 5*time.Second, nil, false)
	exportEcho(t, shB, envB, "echo")
	shA.appMsg(&fakeConn{}, envA.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7000})
	w.pump()
	inc, ok := envB.lastMsg(sigmsg.KindIncomingConn)
	if !ok {
		t.Fatal("no INCOMING_CONN reached the server")
	}
	accept := sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: inc.Cookie}
	shB.appMsg(&fakeConn{}, envB.ip, accept)
	shB.appMsg(&fakeConn{}, envB.ip, accept)
	w.pump()
	if n := envB.countSent(sigmsg.KindSetupAck); n != 1 {
		t.Errorf("the server's two accepts sent %d SETUP_ACKs, want 1", n)
	}
	if n := shB.Obs.Snapshot().Count("sighost.ignored.accepted.accept_conn"); n != 1 {
		t.Errorf("sighost.ignored.accepted.accept_conn = %d, want 1", n)
	}
	if _, ok := envA.lastMsg(sigmsg.KindVCIForConn); !ok {
		t.Error("the call was not established")
	}
}
