package signaling

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/qos"
	"xunet/internal/rtnet"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// RealHost drives the same Sighost state machine over real TCP: the
// deployable daemon of cmd/sighost. It serves the application-signaling
// RPC protocol on a listener, with local-call switching backed by a VCI
// pool and an admission-control book (a standalone signaling entity has
// no ATM fabric or peer PVC mesh; DESIGN.md §2 records the
// substitution). The actor discipline is preserved: one goroutine runs
// every handler, taking typed inputs off a channel and running each
// through the same dispatch as SimHost.
type RealHost struct {
	SH   *Sighost
	Addr atm.Addr

	ln    net.Listener
	inbox chan input
	// own holds the inputs the actor makes for itself (a local call's
	// loopback peer messages). The actor drains it before its next
	// receive, so it never waits on its own inbox.
	own     sim.Ring[input]
	wg      sync.WaitGroup
	quit    chan struct{}
	started time.Time

	mu     sync.Mutex // guards vcis and closed
	vcis   *atm.VCIAlloc
	book   *qos.Book
	closed bool

	// Peer networking (nil until EnablePeerNet): the batched UDP carrier
	// that connects this daemon to other real sighosts, the route table
	// from ATM address to carrier peer, and an optional fault plane that
	// draws the same verdict sequence as the simulation's chaos runs.
	carrier atomic.Pointer[rtnet.Carrier]
	pmu     sync.Mutex
	peers   map[atm.Addr]*rtnet.Peer
	fp      *faults.Plane

	// The application front: every open TCP connection to an application
	// (accepted on ln or dialed to a notify port), so Close can hang up on
	// them, and the idle notify connections Dial reuses. conns is nil once
	// the host has closed.
	cmu   sync.Mutex
	conns map[net.Conn]struct{}
	idle  map[notifyKey][]*realConn
	nIdle int
	m     frontMetrics

	// DialTimeout / DialAttempts / DialBackoff govern how the daemon
	// reaches an application's notify port: each attempt is bounded by
	// DialTimeout, failures retry with doubling backoff (capped at 8×)
	// up to DialAttempts total tries. StartReal sets 5s / 3 / 250ms —
	// the retries cover the race where a client registers its notify
	// port a beat after issuing CONNECT_REQ.
	DialTimeout  time.Duration
	DialAttempts int
	DialBackoff  time.Duration
}

// frame I/O: 4-byte big-endian length prefix, then the encoded message.

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendFrame appends one length-prefixed encoded message onto buf:
// prefix and body build in the same scratch so senders issue a single
// Write (one TCP segment for small messages, and no cross-goroutine
// interleaving risk between prefix and body).
func appendFrame(buf []byte, m *sigmsg.Msg) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = m.AppendTo(buf)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// ReadFrame reads one length-prefixed frame (1 MiB cap).
func ReadFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto is ReadFrame into a reused buffer: the returned frame
// aliases buf's storage (grown when the frame does not fit), so a pump
// that writes `buf, err = readFrameInto(conn, buf)` allocates only while
// its largest frame is still growing. The length prefix is read into the
// same storage — a local array would escape through the io.Reader.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > 1<<20 {
		return nil, errors.New("signaling: oversized frame")
	}
	buf = slices.Grow(buf[:0], int(n))
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// StartReal launches a standalone signaling entity listening on
// listenAddr (e.g. "127.0.0.1:0"). The returned host reports its bound
// address via ListenAddr.
func StartReal(addr atm.Addr, listenAddr string) (*RealHost, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	h := &RealHost{
		Addr:    addr,
		ln:      ln,
		inbox:   make(chan input, 256),
		quit:    make(chan struct{}),
		started: time.Now(),
		vcis:    atm.NewVCIAlloc(32),
		book:    qos.NewBook(622_000), // one OC-12's worth of local capacity
		conns:   map[net.Conn]struct{}{},
		idle:    map[notifyKey][]*realConn{},

		DialTimeout:  5 * time.Second,
		DialAttempts: 3,
		DialBackoff:  250 * time.Millisecond,
	}
	env := &realEnv{h: h}
	env.timers.put = h.put
	// Real time passes by itself; the cost model charges nothing.
	h.SH = New(env, CostModel{BindTimeout: 30 * time.Second})
	// A live daemon keeps its event ring populated so MGMT_TRACE (and
	// cmd/xunetstat) can show recent signaling activity.
	h.SH.EnableTrace(true)
	// Causal call tracing over the wall clock, so `xunetstat trace
	// <callid>` and `xunetstat flight` work against a live daemon. The
	// collector has its own mutex, so it may also be read off the actor.
	tc := trace.NewCollector(env.Now)
	tc.SetEnabled(true)
	h.SH.TraceC = tc
	h.m = newFrontMetrics(h.SH.Obs)

	// Actor. Each input runs to completion, then the peer carrier
	// flushes once — the dispatch-boundary discipline the journal uses
	// for jflush, applied to the tx coalescer: every frame a handler
	// queued rides out in at most one sendmmsg per peer.
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		var in input
		for {
			// The actor's own inputs first, then the channel's.
			if h.own.Len() > 0 {
				in = h.own.Pop()
			} else {
				select {
				case in = <-h.inbox:
					h.m.inboxDepth.Set(int64(len(h.inbox)))
					h.m.inboxWait.Observe(time.Since(h.started) - in.at)
				case <-h.quit:
					return
				}
			}
			if in.kind == inApp {
				// realConn.Close reads the application's last frame kind.
				if c, ok := in.conn.(*realConn); ok {
					c.lastRx = in.msg.Kind
				}
			}
			h.SH.dispatch(&in)
			if car := h.carrier.Load(); car != nil {
				car.Flush()
			}
		}
	}()

	// Acceptor.
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h.serveConn(conn)
		}
	}()
	return h, nil
}

// ListenAddr reports the daemon's bound TCP address.
func (h *RealHost) ListenAddr() string { return h.ln.Addr().String() }

// Close stops the daemon and hangs up on every application connection
// it is serving: clients keep theirs open between RPCs, so waiting for
// them to leave would wait forever.
func (h *RealHost) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	h.ln.Close()
	if car := h.carrier.Load(); car != nil {
		car.Close()
	}
	close(h.quit)
	h.cmu.Lock()
	conns := h.conns
	h.conns, h.idle, h.nIdle = nil, nil, 0
	h.cmu.Unlock()
	for conn := range conns {
		conn.Close()
	}
	h.wg.Wait()
}

// PeerNetConfig configures EnablePeerNet.
type PeerNetConfig struct {
	// Listen is the carrier's UDP listen address ("127.0.0.1:0").
	Listen string
	// Unbatched forces the portable per-message path even on Linux.
	Unbatched bool
	// Faults optionally injects the chaos plane on the peer wire; the
	// verdict sequence matches simEnv's, so a chaos config means the
	// same thing against the simulation and a live deployment.
	Faults *faults.Config
	// OnData consumes received data-class frames (AAL5 CPCS-PDUs); nil
	// drops them. Runs on the carrier's receive pump.
	OnData rtnet.DataHandler
}

// EnablePeerNet attaches the batched UDP carrier that connects this
// daemon to other real sighosts, replacing the loopback-only peer
// behavior. Call once, before adding peers; the carrier's counters and
// per-peer batch histograms register in the daemon's obs registry (and
// from there into any tseries scrape).
func (h *RealHost) EnablePeerNet(cfg PeerNetConfig) error {
	if h.carrier.Load() != nil {
		return errors.New("signaling: peer net already enabled")
	}
	// The decoder and input are owned by the carrier's receive pump:
	// OnSig runs only there, and DecodeInto copies out of the rx buffer
	// (interned strings, no aliasing), so handing the actor a copy of in
	// is race-free.
	var dec sigmsg.Decoder
	in := input{kind: inPeer}
	car, err := rtnet.New(rtnet.Config{
		Listen:    cfg.Listen,
		Unbatched: cfg.Unbatched,
		Obs:       h.SH.Obs,
		OnSig: func(from *rtnet.Peer, frame []byte) {
			if err := dec.DecodeInto(&in.msg, frame); err != nil {
				h.SH.Obs.Counter("rtnet.rx.decode_err").Inc()
				return
			}
			in.peer = atm.Addr(from.Name())
			h.put(in)
		},
		OnData: cfg.OnData,
	})
	if err != nil {
		return err
	}
	if cfg.Faults != nil {
		h.fp = faults.NewPlane(*cfg.Faults)
	}
	h.pmu.Lock()
	h.peers = map[atm.Addr]*rtnet.Peer{}
	h.pmu.Unlock()
	h.carrier.Store(car)
	car.Start()
	return nil
}

// PeerNet exposes the carrier (nil before EnablePeerNet) — the testbed
// and cmd/sighost use it for data-path AAL5 links and for its address.
func (h *RealHost) PeerNet() *rtnet.Carrier { return h.carrier.Load() }

// AddPeer routes signaling for an ATM address to a remote carrier
// endpoint ("host:port" UDP).
func (h *RealHost) AddPeer(addr atm.Addr, udp string) error {
	car := h.carrier.Load()
	if car == nil {
		return errors.New("signaling: peer net not enabled")
	}
	ap, err := netip.ParseAddrPort(udp)
	if err != nil {
		return fmt.Errorf("signaling: peer %s: %w", addr, err)
	}
	p, err := car.AddPeer(string(addr), ap)
	if err != nil {
		return err
	}
	h.pmu.Lock()
	h.peers[addr] = p
	h.pmu.Unlock()
	return nil
}

// Do runs fn in actor context and waits for it: anything that reads or
// changes actor-owned state from another goroutine goes through here
// (the registry and ListSizes need not). It returns without running fn
// if the host is closed.
func (h *RealHost) Do(fn func()) {
	done := make(chan struct{})
	h.put(input{fn: func() { fn(); close(done) }})
	select {
	case <-done:
	case <-h.quit:
	}
}

// EnableReliability turns the reliable peer channel on, in actor
// context (the state machine is actor-owned; a cross-host deployment
// enables it on every daemon). Blocks until applied so callers can
// order it before any traffic.
func (h *RealHost) EnableReliability(cfg RelConfig) {
	h.Do(func() { h.SH.EnableReliability(cfg) })
}

func (h *RealHost) peerFor(dst atm.Addr) *rtnet.Peer {
	h.pmu.Lock()
	defer h.pmu.Unlock()
	return h.peers[dst]
}

// sendPeerFrame coalesces one encoded signaling frame toward a peer,
// drawing the same fault-plane verdict sequence as simEnv so chaos
// configs behave identically in both modes. The carrier copies frame
// before returning (SendPeerRaw's ownership contract); only the
// deferred-delay verdict needs a private copy, because it outlives the
// call.
func (h *RealHost) sendPeerFrame(p *rtnet.Peer, m *sigmsg.Msg, frame []byte) error {
	if fp := h.fp; fp != nil {
		v := fp.SigMsg(trace.Context{Trace: m.TraceID, Span: m.SpanID})
		if v.Drop {
			return nil // swallowed by the wire; reliability must repair it
		}
		if v.ExtraDelay > 0 {
			cp := append([]byte(nil), frame...)
			time.AfterFunc(v.ExtraDelay, func() {
				// No dispatch boundary follows a timer-fired send; flush
				// directly.
				if p.SendSig(cp) == nil {
					_ = p.Flush()
				}
			})
			return nil
		}
		if v.Dup {
			_ = p.SendSig(frame)
		}
	}
	return p.SendSig(frame)
}

// put queues in for the actor, stamped with its queueing time so the
// actor can meter how long it waited (dropped after Close).
func (h *RealHost) put(in input) {
	in.at = time.Since(h.started)
	select {
	case h.inbox <- in:
	case <-h.quit:
	}
}

// frontMetrics counts the application front from the daemon's own
// registry: how many TCP connections a setup costs (none, warm) and how
// long inputs wait in the actor's inbox.
type frontMetrics struct {
	accepted   *obs.Counter   // rtenv.app_conns.accepted: connections accepted on the RPC listener
	open       *obs.Gauge     // rtenv.app_conns.open: open connections to applications, accepted or dialed
	dialed     *obs.Counter   // rtenv.notify.dialed: notify connections opened
	reused     *obs.Counter   // rtenv.notify.reused: notifications sent on an idle connection
	evicted    *obs.Counter   // rtenv.notify.evicted: idle connections the application closed
	idleConns  *obs.Gauge     // rtenv.notify.idle: idle set size
	inboxDepth *obs.Gauge     // rtenv.inbox.depth: inputs still queued at each dispatch
	inboxWait  *obs.Histogram // rtenv.inbox.wait: queued to run
}

func newFrontMetrics(r *obs.Registry) frontMetrics {
	return frontMetrics{
		accepted:   r.Counter("rtenv.app_conns.accepted"),
		open:       r.Gauge("rtenv.app_conns.open"),
		dialed:     r.Counter("rtenv.notify.dialed"),
		reused:     r.Counter("rtenv.notify.reused"),
		evicted:    r.Counter("rtenv.notify.evicted"),
		idleConns:  r.Gauge("rtenv.notify.idle"),
		inboxDepth: r.Gauge("rtenv.inbox.depth"),
		inboxWait:  r.Histogram("rtenv.inbox.wait"),
	}
}

// serveConn pumps one application connection into the actor until the
// application hangs up or the host closes.
func (h *RealHost) serveConn(conn net.Conn) {
	if !h.track(conn) {
		conn.Close()
		return
	}
	h.m.accepted.Inc()
	c := &realConn{h: h, c: conn}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer h.untrack(conn)
		defer conn.Close()
		var dec sigmsg.Decoder
		in := input{kind: inApp, conn: c, ip: ipOf(conn.RemoteAddr())}
		rd := bufio.NewReader(conn) // a frame written whole is one read
		var buf []byte
		for {
			var err error
			if buf, err = readFrameInto(rd, buf); err != nil {
				return
			}
			if err := dec.DecodeInto(&in.msg, buf); err != nil {
				continue
			}
			h.put(in)
		}
	}()
}

// track registers an open application connection; false means the host
// has closed and the caller must close the connection itself.
func (h *RealHost) track(conn net.Conn) bool {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	if h.conns == nil {
		return false
	}
	h.conns[conn] = struct{}{}
	h.m.open.Add(1)
	return true
}

func (h *RealHost) untrack(conn net.Conn) {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	if _, ok := h.conns[conn]; ok {
		delete(h.conns, conn)
		h.m.open.Add(-1)
	}
}

// ipOf maps a TCP address to the 32-bit address type the state machine
// uses for endpoint identity.
func ipOf(a net.Addr) memnet.IPAddr {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return 0
	}
	v4 := ta.IP.To4()
	if v4 == nil {
		return 0
	}
	return memnet.IP4(v4[0], v4[1], v4[2], v4[3])
}

// notifyKey names an application's notify endpoint.
type notifyKey struct {
	ip   memnet.IPAddr
	port uint16
}

// maxIdleNotify caps the idle set over all applications: it bounds the
// descriptors the daemon holds for connections nobody is using, and a
// notification that finds the set full simply closes its connection
// as every notification did before connections were reused.
const maxIdleNotify = 32

// realConn adapts a net.Conn to the signaling Conn interface. The
// encode buffer is reused under the send mutex; the Write finishes with
// it before Send returns.
//
// A connection the daemon dialed to a notify port (key.port != 0)
// outlives the exchange it was dialed for: Close returns it to the
// host's idle set when the exchange on it is complete, and the next Dial
// for the same endpoint takes it from there. lastTx, lastRx and reused
// belong to the actor (Send and Close run there, and the actor records
// lastRx as it takes each of the pump's frames); the rest is shared with
// the pump under mu.
type realConn struct {
	h   *RealHost
	mu  sync.Mutex
	c   net.Conn
	buf []byte

	key    notifyKey
	lastTx sigmsg.Kind // last frame the daemon sent in this exchange
	lastRx sigmsg.Kind // last frame the application sent in this exchange
	reused bool        // this exchange began on an idle connection
	// retry holds the INCOMING_CONN frame of an exchange that began on an
	// idle connection, until the application answers it: if the
	// connection turns out to have been dead, the pump sends the frame
	// again on a fresh one.
	retry  []byte
	dead   bool // the application end failed and the pump has left
	closed bool // really closed by Close
}

func (c *realConn) Send(m sigmsg.Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.reused && c.lastTx == 0
	c.lastTx = m.Kind
	c.buf = appendFrame(c.buf[:0], &m)
	if first && c.dead {
		// The application hung up while the connection sat idle and the
		// pump noticed only after it was handed out. Nothing has been
		// sent on it, so the frame goes out on a new connection.
		frame := append([]byte(nil), c.buf...)
		c.h.wg.Add(1)
		go func() {
			defer c.h.wg.Done()
			if conn := c.resend(frame); conn != nil {
				c.h.pumpNotify(c, conn)
			}
		}()
		return nil
	}
	if first && m.Kind == sigmsg.KindIncomingConn {
		c.retry = append(c.retry[:0], c.buf...)
	}
	_, err := c.c.Write(c.buf)
	return err
}

// Close ends the exchange the connection was handed out for. A dialed
// connection goes back to the idle set when both ends are done with the
// exchange — the daemon's last frame delivered the outcome (VCI_FOR_CONN,
// CONN_FAILED) or the application's last frame declined the call — and
// is really closed otherwise: a call torn down while its server is still
// deciding must not leave that server's reply to be read by another call.
func (c *realConn) Close() {
	done := c.lastTx == sigmsg.KindVCIForConn || c.lastTx == sigmsg.KindConnFailed ||
		c.lastRx == sigmsg.KindRejectConn
	if c.key.port != 0 && done && c.h.putIdle(c) {
		return
	}
	c.mu.Lock()
	c.closed = true
	c.retry = nil
	c.c.Close() // the pump sees the error and leaves
	c.mu.Unlock()
}

// putIdle parks c for the next notification to the same endpoint; false
// means the caller must close it (dead, host closed, or set full).
func (h *RealHost) putIdle(c *realConn) bool {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead || h.conns == nil || h.nIdle >= maxIdleNotify {
		return false
	}
	h.idle[c.key] = append(h.idle[c.key], c)
	h.nIdle++
	h.m.idleConns.Set(int64(h.nIdle))
	return true
}

// takeIdle hands out the most recently parked connection to k, or nil.
func (h *RealHost) takeIdle(k notifyKey) *realConn {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	l := h.idle[k]
	if len(l) == 0 {
		return nil
	}
	c := l[len(l)-1]
	l[len(l)-1] = nil
	h.idle[k] = l[:len(l)-1]
	h.nIdle--
	h.m.idleConns.Set(int64(h.nIdle))
	return c
}

// evict drops a dead connection from the idle set, so the endpoint's
// next notification dials.
func (h *RealHost) evict(c *realConn) {
	h.cmu.Lock()
	defer h.cmu.Unlock()
	l := h.idle[c.key]
	for i, x := range l {
		if x == c {
			l[i] = l[len(l)-1]
			l[len(l)-1] = nil
			l = l[:len(l)-1]
			h.idle[c.key] = l
			h.nIdle--
			h.m.idleConns.Set(int64(h.nIdle))
			h.m.evicted.Inc()
			break
		}
	}
	if len(l) == 0 {
		delete(h.idle, c.key) // no entry outlives its endpoint
	}
}

// realEnv implements Env over the real network and clock.
type realEnv struct {
	h *RealHost

	// txBuf is SendPeer's encode scratch. SendPeer runs only in actor
	// context (state-machine actions and their timers), so one buffer
	// suffices; the carrier copies out of it before returning.
	txBuf  []byte
	timers timers // recycled After records
}

func (e *realEnv) Addr() atm.Addr         { return e.h.Addr }
func (e *realEnv) Charge(d time.Duration) {} // real time passes on its own
func (e *realEnv) Rand16() uint16         { return uint16(rand.Uint32()) }
func (e *realEnv) Now() time.Duration     { return time.Since(e.h.started) }

// After arms a recycled record: its runtime timer is made once, with the
// firing bound to the record, and Reset on every later arm.
func (e *realEnv) After(d time.Duration, what string, fn func()) CancelFunc {
	t := e.timers.get(fn)
	if t.rt == nil {
		t.rt = time.AfterFunc(d, t.fired)
	} else {
		t.rt.Reset(d)
	}
	return t.cancelFunc()
}

// SendPeer encodes into the env scratch and sends that frame.
func (e *realEnv) SendPeer(dst atm.Addr, m sigmsg.Msg) error {
	e.txBuf = m.AppendTo(e.txBuf[:0])
	return e.SendPeerRaw(dst, m, e.txBuf)
}

// SendPeerRaw delivers to the local loopback through the actor's own
// queue (it runs in actor context); remote destinations ride the
// batched carrier, and the reliability layer's retransmits hit the wire
// from the frame encoded at first transmission, exactly as in the
// simulation. Without EnablePeerNet the
// standalone daemon still has no peers and remote destinations fail as
// before.
func (e *realEnv) SendPeerRaw(dst atm.Addr, m sigmsg.Msg, raw []byte) error {
	if dst == e.h.Addr {
		e.h.own.Push(input{kind: inPeer, peer: dst, msg: m})
		return nil
	}
	p := e.h.peerFor(dst)
	if p == nil {
		if e.h.carrier.Load() == nil {
			return fmt.Errorf("signaling: standalone daemon has no peer %s", dst)
		}
		return fmt.Errorf("signaling: no peer route to %s", dst)
	}
	return e.h.sendPeerFrame(p, &m, raw)
}

// Dial hands the state machine a connection to an application's notify
// port: an idle one when the endpoint has one (cb runs before Dial
// returns), a fresh one otherwise (cb is queued when the dial ends).
func (e *realEnv) Dial(ip memnet.IPAddr, port uint16, cb func(Conn, error)) {
	h := e.h
	k := notifyKey{ip: ip, port: port}
	if c := h.takeIdle(k); c != nil {
		h.m.reused.Inc()
		c.lastTx, c.lastRx, c.reused = 0, 0, true
		cb(c, nil)
		return
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		conn, err := h.dialNotify(k)
		if err != nil {
			h.put(input{kind: inDialed, dialed: cb, err: err})
			return
		}
		if !h.track(conn) {
			conn.Close()
			return
		}
		c := &realConn{h: h, c: conn, key: k}
		h.put(input{kind: inDialed, dialed: cb, conn: c})
		h.pumpNotify(c, conn)
	}()
}

// dialNotify connects to an application's notify port over TCP, retrying
// with capped exponential backoff per the host's Dial* knobs.
func (h *RealHost) dialNotify(k notifyKey) (net.Conn, error) {
	target := fmt.Sprintf("%s:%d", k.ip, k.port)
	backoff := h.DialBackoff
	attempts := h.DialAttempts
	attempts = max(attempts, 1)
	var err error
	for a := 1; a <= attempts; a++ {
		var conn net.Conn
		if conn, err = net.DialTimeout("tcp", target, h.DialTimeout); err == nil {
			h.m.dialed.Inc()
			return conn, nil
		}
		if a < attempts && backoff > 0 {
			time.Sleep(backoff)
			if backoff < 8*h.DialBackoff {
				backoff *= 2
			}
		}
	}
	return nil, fmt.Errorf("signaling: notify dial %s failed after %d attempts: %w", target, attempts, err)
}

// pumpNotify feeds the application's frames on a dialed connection to
// the actor for as long as the connection lives, idle or handed out.
func (h *RealHost) pumpNotify(c *realConn, conn net.Conn) {
	var dec sigmsg.Decoder
	in := input{kind: inApp, conn: c, ip: c.key.ip}
	rd := bufio.NewReader(conn)
	var buf []byte
	for {
		var err error
		if buf, err = readFrameInto(rd, buf); err != nil {
			h.untrack(conn)
			if conn = c.lost(); conn == nil {
				return
			}
			rd.Reset(conn)
			continue
		}
		c.mu.Lock()
		c.retry = c.retry[:0] // answered
		c.mu.Unlock()
		if derr := dec.DecodeInto(&in.msg, buf); derr != nil {
			continue
		}
		h.put(in)
	}
}

// lost runs on the pump when the application end fails (EOF, RST): the
// connection leaves the idle set at once, so the endpoint's next
// notification dials and a dead application ends in "server unreachable"
// or "client unreachable" as it always has. One case needs more. An
// application may hang up on a connection the daemon has just parked,
// and an INCOMING_CONN handed to it in that window reaches nobody; the
// call would wait for a server that never heard of it. That frame is
// sent once more on a new connection, which lost returns for the pump
// to carry on with.
func (c *realConn) lost() net.Conn {
	c.mu.Lock()
	c.dead = true // before evict: a Close from here on cannot park it
	c.c.Close()
	frame := c.retry
	c.retry = nil
	c.mu.Unlock()
	c.h.evict(c)
	if len(frame) == 0 {
		return nil
	}
	return c.resend(frame)
}

// resend delivers frame, the first of an exchange that began on a dead
// idle connection, on a fresh one, and returns it for pumping if the
// exchange goes on. If the endpoint cannot be reached an INCOMING_CONN
// is answered on the server's behalf, "server unreachable", as a failed
// dial would have been; a lost VCI_FOR_CONN leaves its call to the bind
// timer.
func (c *realConn) resend(frame []byte) net.Conn {
	h := c.h
	conn, err := h.dialNotify(c.key)
	if err == nil {
		if !h.track(conn) { // the host closed
			conn.Close()
			return nil
		}
		if _, err = conn.Write(frame); err == nil {
			c.mu.Lock()
			open := !c.closed
			if open {
				c.c, c.dead = conn, false
			}
			c.mu.Unlock()
			if open {
				return conn
			}
		}
		h.untrack(conn)
		conn.Close()
		if err == nil {
			return nil // delivered; the exchange had ended meanwhile
		}
	}
	if m, derr := sigmsg.Decode(frame[4:]); derr == nil && m.Kind == sigmsg.KindIncomingConn {
		h.put(input{kind: inApp, conn: c, ip: c.key.ip,
			msg: sigmsg.Msg{Kind: sigmsg.KindRejectConn, Cookie: m.Cookie, Reason: "server unreachable"}})
	}
	return nil
}

// SetupVC allocates a local circuit identity from the VCI pool with
// admission control, standing in for fabric programming.
func (e *realEnv) SetupVC(dst atm.Addr, q qos.QoS) (*VCHandle, error) {
	h := e.h
	h.mu.Lock()
	defer h.mu.Unlock()
	key, err := h.book.Admit(q)
	if err != nil {
		return nil, err
	}
	if v := h.vcis.Alloc().VCI; v != 0 {
		return &VCHandle{
			SrcVCI: v,
			DstVCI: v,
			Release: func() {
				h.mu.Lock()
				h.vcis.Free(v)
				h.book.Release(key)
				h.mu.Unlock()
			},
		}, nil
	}
	h.book.Release(key)
	return nil, errors.New("signaling: VCI pool exhausted")
}

// KernelDisconnect has no kernel to reach in standalone mode; the
// endpoint learns of teardown when its next operation fails.
func (e *realEnv) KernelDisconnect(endpoint memnet.IPAddr, vci atm.VCI) {}
