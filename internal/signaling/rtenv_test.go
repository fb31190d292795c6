package signaling_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
)

// These tests exercise the real-TCP deployment of the signaling entity
// over the loopback interface: the same state machine as the simulated
// world, driven by actual sockets.

func startReal(t *testing.T) *signaling.RealHost {
	t.Helper()
	h, err := signaling.StartReal("mh.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

func TestRealRegisterService(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	if err := c.ExportService("file-service", 19001); err != nil {
		t.Fatal(err)
	}
	svc, _, _, _, _ := h.SH.ListSizes()
	if svc != 1 {
		t.Fatalf("service_list = %d", svc)
	}
}

func TestRealLocalCallEndToEnd(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}

	// Server side: register, then accept one call.
	srvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvL.Close()
	srvPort := uint16(srvL.Addr().(*net.TCPAddr).Port)
	if err := c.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	type srvResult struct {
		vci  uint16
		qos  string
		err  error
		qreq string
	}
	srvCh := make(chan srvResult, 1)
	go func() {
		req, err := signaling.AwaitServiceRequest(srvL)
		if err != nil {
			srvCh <- srvResult{err: err}
			return
		}
		vci, granted, err := req.Accept("cbr:500")
		srvCh <- srvResult{vci: uint16(vci), qos: granted, err: err, qreq: req.QoS}
	}()

	// Client side.
	cliL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cliL.Close()
	cliPort := uint16(cliL.Addr().(*net.TCPAddr).Port)
	conn, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "real demo", "cbr:1000")
	if err != nil {
		t.Fatal(err)
	}
	sr := <-srvCh
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if conn.VCI == 0 || uint16(conn.VCI) != sr.vci {
		t.Fatalf("VCIs differ: client %v server %v", conn.VCI, sr.vci)
	}
	// Negotiation: server countered cbr:1000 with cbr:500.
	if conn.QoS != "cbr:500" || sr.qos != "cbr:500" {
		t.Fatalf("negotiated qos client=%q server=%q", conn.QoS, sr.qos)
	}
	if sr.qreq != "cbr:1000" {
		t.Fatalf("server saw request qos %q", sr.qreq)
	}
}

func TestRealUnknownServiceFails(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	cliL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer cliL.Close()
	_, err := c.OpenConnection("mh.rt", "ghost", cliL, uint16(cliL.Addr().(*net.TCPAddr).Port), "", "")
	if err == nil || !strings.Contains(err.Error(), "no such service") {
		t.Fatalf("err = %v", err)
	}
}

func TestRealRemoteDestinationRejected(t *testing.T) {
	// The standalone daemon has no PVC mesh: a call to another router
	// must fail cleanly rather than hang.
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	srvL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer srvL.Close()
	if err := c.ExportService("echo", uint16(srvL.Addr().(*net.TCPAddr).Port)); err != nil {
		t.Fatal(err)
	}
	cliL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer cliL.Close()
	_, err := c.OpenConnection("ucb.rt", "echo", cliL, uint16(cliL.Addr().(*net.TCPAddr).Port), "", "")
	if err == nil {
		t.Fatal("remote call succeeded on standalone daemon")
	}
}

func TestRealCancelUnknownCookie(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	if err := c.Client().CancelRequest(0xBEEF); err == nil {
		t.Fatal("cancel of unknown cookie succeeded")
	}
}

func TestRealAdmissionControl(t *testing.T) {
	// The standalone book holds 622,000 kb/s; an over-ask fails and the
	// client hears CONN_FAILED.
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	srvL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer srvL.Close()
	if err := c.ExportService("big", uint16(srvL.Addr().(*net.TCPAddr).Port)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			req, err := signaling.AwaitServiceRequest(srvL)
			if err != nil {
				return
			}
			req.Accept(req.QoS)
		}
	}()
	cliL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer cliL.Close()
	_, err := c.OpenConnection("mh.rt", "big", cliL, uint16(cliL.Addr().(*net.TCPAddr).Port), "", "cbr:999999999")
	if err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("err = %v", err)
	}
}

// ---------------------------------------------------------------------
// Connection reuse on the application front (DESIGN.md §16): the daemon
// keeps the connections it dials to notify ports, and the tests below
// count TCP connections from the daemon's own registry.
// ---------------------------------------------------------------------

func listenTCP(t testing.TB) (net.Listener, uint16) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, uint16(l.Addr().(*net.TCPAddr).Port)
}

func count(name string, hs ...*signaling.RealHost) (n uint64) {
	for _, h := range hs {
		n += h.SH.Obs.Counter(name).Value()
	}
	return n
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// drained waits for a daemon's Residue to empty: teardown crosses the
// carrier asynchronously.
func drained(t testing.TB, hs ...*signaling.RealHost) {
	t.Helper()
	for _, h := range hs {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			msg := h.SH.Residue()
			if msg == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
		}
	}
}

type grant struct {
	vci     atm.VCI
	cookie  uint16
	comment string
	err     error
}

// acceptAll is a server application that accepts every call until its
// listener closes, reporting each grant.
func acceptAll(l net.Listener) <-chan grant {
	grants := make(chan grant, 16)
	go func() {
		for {
			req, err := signaling.AwaitServiceRequest(l)
			if err != nil {
				return
			}
			vci, _, err := req.Accept("")
			grants <- grant{vci: vci, cookie: req.Cookie, comment: req.Comment, err: err}
		}
	}()
	return grants
}

var loopback = memnet.IP4(127, 0, 0, 1)

// hangUpCall is the kernel's report that the endpoint closed its socket:
// the call is torn down end to end.
func hangUpCall(h *signaling.RealHost, vci atm.VCI) {
	h.Do(func() { h.SH.HandleKernel(loopback, kern.KMsg{Kind: kern.MsgClose, VCI: vci}) })
}

// lifecycle plays the kernel's half of one established call: connect and
// bind authenticate the granted VCIs, close tears the call down.
func lifecycle(a, b *signaling.RealHost, conn *signaling.Connection, g grant) {
	a.Do(func() {
		a.SH.HandleKernel(loopback, kern.KMsg{Kind: kern.MsgConnect, VCI: conn.VCI, Cookie: conn.Cookie})
	})
	b.Do(func() {
		b.SH.HandleKernel(loopback, kern.KMsg{Kind: kern.MsgBind, VCI: g.vci, Cookie: g.cookie})
	})
	hangUpCall(a, conn.VCI)
}

// TestRealSetupOpensNoConnections is the deterministic proxy for the
// setup-rate gain: once warm, a full open→accept→connect→bind→close
// cycle between two daemons opens no TCP connection anywhere — the RPC
// rides the client's kept connection and both notifications ride idle
// ones.
func TestRealSetupOpensNoConnections(t *testing.T) {
	a, b := startPeerPair(t, signaling.PeerNetConfig{}, signaling.PeerNetConfig{})
	srvC := &signaling.RealClient{SighostAddr: b.ListenAddr()}
	defer srvC.Close()
	srvL, srvPort := listenTCP(t)
	if err := srvC.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	grants := acceptAll(srvL)
	cliC := &signaling.RealClient{SighostAddr: a.ListenAddr()}
	defer cliC.Close()
	cliL, cliPort := listenTCP(t)
	cycle := func() {
		conn, err := cliC.OpenConnection("b.rt", "echo", cliL, cliPort, "", "cbr:100")
		if err != nil {
			t.Fatal(err)
		}
		g := <-grants
		if g.err != nil {
			t.Fatal(g.err)
		}
		lifecycle(a, b, conn, g)
	}
	cycle()
	cycle()
	dialed, accepted, reused := count("rtenv.notify.dialed", a, b), count("rtenv.app_conns.accepted", a, b), count("rtenv.notify.reused", a, b)
	for i := 0; i < 50; i++ {
		cycle()
	}
	if d := count("rtenv.notify.dialed", a, b) - dialed; d != 0 {
		t.Errorf("50 warm setups dialed %d notify connections, want 0", d)
	}
	if d := count("rtenv.app_conns.accepted", a, b) - accepted; d != 0 {
		t.Errorf("50 warm setups opened %d RPC connections, want 0", d)
	}
	if d := count("rtenv.notify.reused", a, b) - reused; d != 100 {
		t.Errorf("50 warm setups reused idle connections %d times, want 100", d)
	}
	drained(t, a, b)
}

// A server application that closes its listener takes its parked
// connections with it; the daemon evicts them, and the next SETUP ends
// as it did when every notification dialed: rejected "server
// unreachable", the caller told CONN_FAILED.
func TestRealServerGoneEvictsIdleConn(t *testing.T) {
	h := startReal(t)
	h.DialBackoff = time.Millisecond
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer c.Close()
	srvL, srvPort := listenTCP(t)
	if err := c.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	grants := acceptAll(srvL)
	cliL, cliPort := listenTCP(t)
	conn, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if g := <-grants; g.err != nil {
		t.Fatal(g.err)
	}
	hangUpCall(h, conn.VCI)
	// Two idle connections now: the server's and the client's.
	waitFor(t, "both notify connections to be parked", func() bool {
		return h.SH.Obs.Gauge("rtenv.notify.idle").Value() == 2
	})
	srvL.Close()
	waitFor(t, "the server's idle connection to be evicted", func() bool {
		return count("rtenv.notify.evicted", h) == 1
	})
	if idle := h.SH.Obs.Gauge("rtenv.notify.idle").Value(); idle != 1 {
		t.Fatalf("idle set holds %d connections after eviction, want the client's 1", idle)
	}
	_, err = c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
	if err == nil || !strings.Contains(err.Error(), "server unreachable") {
		t.Fatalf("call to a dead server: err = %v, want server unreachable", err)
	}
	drained(t, h)
}

// rawRPC speaks one request/reply to the daemon on its own connection,
// the way a client written before connections were kept would.
func rawRPC(addr string, m sigmsg.Msg) (sigmsg.Msg, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return sigmsg.Msg{}, err
	}
	defer conn.Close()
	return rawExchange(conn, &m)
}

// rawExchange optionally writes one frame and reads one.
func rawExchange(conn net.Conn, m *sigmsg.Msg) (sigmsg.Msg, error) {
	if m != nil {
		if err := signaling.WriteFrame(conn, m.AppendTo(nil)); err != nil {
			return sigmsg.Msg{}, err
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, err := signaling.ReadFrame(conn)
	if err != nil {
		return sigmsg.Msg{}, fmt.Errorf("after sending %v: %w", m, err)
	}
	return sigmsg.Decode(raw)
}

// A call torn down while its server is still deciding really closes the
// server's connection: Accept fails, and the connection — on which an
// ACCEPT_CONN may still be in flight — is never handed to another call.
func TestRealTeardownWhileWaitingClosesServerConn(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer c.Close()
	srvL, srvPort := listenTCP(t)
	if err := c.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	cliL, cliPort := listenTCP(t)
	call := func() {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			req, err := signaling.AwaitServiceRequest(srvL)
			if err == nil {
				_, _, err = req.Accept("")
			}
			done <- err
		}()
		conn, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		hangUpCall(h, conn.VCI)
	}
	call() // parks a connection to the server
	dialed, reused := count("rtenv.notify.dialed", h), count("rtenv.notify.reused", h)

	// The second call takes that connection, and is cancelled while the
	// server holds the request.
	reqID, err := rawRPC(h.ListenAddr(), sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: "mh.rt", Service: "echo", NotifyPort: cliPort})
	if err != nil || reqID.Kind != sigmsg.KindReqID {
		t.Fatalf("CONNECT_REQ answered %v, %v", reqID, err)
	}
	req, err := signaling.AwaitServiceRequest(srvL)
	if err != nil {
		t.Fatal(err)
	}
	if d := count("rtenv.notify.reused", h) - reused; d != 1 {
		t.Fatalf("second INCOMING_CONN reused %d idle connections, want 1", d)
	}
	if err := c.Client().CancelRequest(reqID.Cookie); err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Accept(""); err == nil {
		t.Fatal("Accept succeeded on a cancelled call")
	}
	drained(t, h)

	// The third call cannot find it idle: the daemon dials the server
	// again (the client's notify connection is still the parked one).
	call()
	if d := count("rtenv.notify.dialed", h) - dialed; d != 1 {
		t.Errorf("call after the teardown dialed %d connections, want 1 (the server's)", d)
	}
}

// Eight concurrent calls to one service each hold their own notify
// connection while the server decides, every Accept reads its own call's
// VCI_FOR_CONN (Accept checks the cookie), and all of them are parked
// afterwards (TestNotifyIdleSetIsCapped fills the set past its cap).
func TestRealConcurrentCallsHoldDistinctConns(t *testing.T) {
	const n = 8
	h := startReal(t)
	srvC := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer srvC.Close()
	srvL, srvPort := listenTCP(t)
	if err := srvC.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	// The server collects all n requests before answering any.
	grants := make(chan grant, n)
	go func() {
		var reqs []*signaling.ServiceRequest
		for len(reqs) < n {
			req, err := signaling.AwaitServiceRequest(srvL)
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		if got := count("rtenv.notify.dialed", h) + count("rtenv.notify.reused", h); got != n {
			grants <- grant{err: fmt.Errorf("%d requests held on %d connections", n, got)}
		}
		var wg sync.WaitGroup
		for _, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vci, _, err := req.Accept("")
				grants <- grant{vci: vci, comment: req.Comment, err: err}
			}()
		}
		wg.Wait()
		close(grants)
	}()
	type opened struct {
		id  string
		vci atm.VCI
		err error
	}
	results := make(chan opened, n)
	for i := 0; i < n; i++ {
		cli := &signaling.RealClient{SighostAddr: h.ListenAddr()}
		defer cli.Close()
		l, port := listenTCP(t)
		id := fmt.Sprintf("caller-%d", i)
		go func() {
			conn, err := cli.OpenConnection("mh.rt", "echo", l, port, id, "")
			if err != nil {
				results <- opened{id: id, err: err}
				return
			}
			results <- opened{id: id, vci: conn.VCI}
		}()
	}
	byCaller := map[string]atm.VCI{}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: %v", r.id, r.err)
		}
		byCaller[r.id] = r.vci
	}
	for g := range grants {
		if g.err != nil {
			t.Fatal(g.err)
		}
		// A local call is one circuit: both ends are granted the same VCI.
		if byCaller[g.comment] != g.vci {
			t.Errorf("%s opened VCI %v but its server accepted VCI %v", g.comment, byCaller[g.comment], g.vci)
		}
		delete(byCaller, g.comment)
	}
	if len(byCaller) != 0 {
		t.Errorf("callers without a matching grant: %v", byCaller)
	}
	// Every exchange completed, so every connection is parked (the last
	// one a moment after its VCI_FOR_CONN was read).
	idle := h.SH.Obs.Gauge("rtenv.notify.idle")
	waitFor(t, "all notify connections to be parked", func() bool { return idle.Value() == 2*n })
}

// rawApp is an application written against the protocol as it was when
// every exchange had its own connection: it hangs up after each one.
type rawApp struct {
	daemon string
	l      net.Listener
	port   uint16
}

func newRawApp(t testing.TB, daemon string) *rawApp {
	l, port := listenTCP(t)
	return &rawApp{daemon: daemon, l: l, port: port}
}

// serve accepts every call, one at a time, closing each connection after
// VCI_FOR_CONN.
func (r *rawApp) serve(errs chan<- error) {
	for {
		conn, err := r.l.Accept()
		if err != nil {
			return // listener closed
		}
		m, err := rawExchange(conn, nil)
		if err == nil && m.Kind != sigmsg.KindIncomingConn {
			err = fmt.Errorf("server notified %v", m)
		}
		if err == nil {
			var vci sigmsg.Msg
			vci, err = rawExchange(conn, &sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: m.Cookie})
			if err == nil && (vci.Kind != sigmsg.KindVCIForConn || vci.Cookie != m.Cookie) {
				err = fmt.Errorf("server accepted cookie %d, got %v", m.Cookie, vci)
			}
		}
		conn.Close()
		if err != nil {
			errs <- err
		}
	}
}

// open places one call and hangs up on the notification that ends it.
func (r *rawApp) open(h *signaling.RealHost, service string) error {
	reqID, err := rawRPC(r.daemon, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: h.Addr, Service: service, NotifyPort: r.port})
	if err != nil || reqID.Kind != sigmsg.KindReqID {
		return fmt.Errorf("CONNECT_REQ answered %v, %v", reqID, err)
	}
	conn, err := r.l.Accept()
	if err != nil {
		return err
	}
	m, err := rawExchange(conn, nil)
	if err == nil && (m.Kind != sigmsg.KindVCIForConn || m.Cookie != reqID.Cookie) {
		err = fmt.Errorf("request %d ended in %v", reqID.Cookie, m)
	}
	if err == nil {
		// The daemon parked this connection when it sent the frame just
		// read. VCI_FOR_CONN has no reply, so one sent in the instant
		// before the daemon sees the hang-up would be lost (DESIGN.md
		// §16); a caller's next request is a round trip away, the test's
		// may not be, so it hangs up in two steps and waits for the
		// daemon's end to close.
		if err = conn.(*net.TCPConn).CloseWrite(); err == nil {
			_, err = io.Copy(io.Discard, conn)
		}
	}
	conn.Close()
	if err != nil {
		return err
	}
	hangUpCall(h, m.VCI)
	return nil
}

// An application that closes its connection after every exchange still
// works against a daemon that would rather keep them: hung-up idle
// connections are evicted, and an INCOMING_CONN that raced a hang-up is
// sent again on a new connection. Four callers keep one sequential
// server busy, so its hang-ups and the next INCOMING_CONN do race.
func TestRealPerExchangeAppInterop(t *testing.T) {
	h := startReal(t)
	srv := newRawApp(t, h.ListenAddr())
	if reply, err := rawRPC(h.ListenAddr(), sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: "echo", NotifyPort: srv.port}); err != nil || reply.Kind != sigmsg.KindServiceRegs {
		t.Fatalf("EXPORT_SRV answered %v, %v", reply, err)
	}
	srvErrs := make(chan error, 64)
	go srv.serve(srvErrs)
	const callers, calls = 4, 25
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		cli := newRawApp(t, h.ListenAddr())
		go func() {
			for j := 0; j < calls; j++ {
				if err := cli.open(h, "echo"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-srvErrs:
		t.Fatal(err)
	default:
	}
	if est := count("sighost.calls.established", h); est != 2*callers*calls {
		t.Errorf("%d call ends established, want %d", est, 2*callers*calls)
	}
	drained(t, h)
}

// An INCOMING_CONN that went out on a parked connection the server then
// hung up on, unanswered, is sent once more on a new connection; when
// there is no reaching the server at all, the daemon answers for it.
func TestRealIncomingConnResentOnFreshConn(t *testing.T) {
	h := startReal(t)
	h.DialBackoff = time.Millisecond
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer c.Close()
	srvL, srvPort := listenTCP(t)
	if err := c.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	cliL, cliPort := listenTCP(t)
	type result struct {
		conn *signaling.Connection
		err  error
	}
	open := func() <-chan result {
		done := make(chan result, 1)
		go func() {
			conn, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
			done <- result{conn, err}
		}()
		return done
	}
	accept := func(conn net.Conn, incoming sigmsg.Msg) {
		t.Helper()
		vci, err := rawExchange(conn, &sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: incoming.Cookie})
		if err != nil || vci.Kind != sigmsg.KindVCIForConn {
			t.Fatalf("ACCEPT_CONN answered %v, %v", vci, err)
		}
	}
	established := func(r result) {
		t.Helper()
		if r.err != nil {
			t.Fatal(r.err)
		}
		hangUpCall(h, r.conn.VCI)
	}

	// First call: the server keeps its connection, as the library would.
	call := open()
	conn1, err := srvL.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	incoming, err := rawExchange(conn1, nil)
	if err != nil {
		t.Fatal(err)
	}
	accept(conn1, incoming)
	established(<-call)

	// Second call: INCOMING_CONN arrives on the parked connection; the
	// server hangs up instead of answering, and hears it again.
	call = open()
	first, err := rawExchange(conn1, nil)
	if err != nil || first.Kind != sigmsg.KindIncomingConn {
		t.Fatalf("parked connection carried %v, %v", first, err)
	}
	conn1.Close()
	conn2, err := srvL.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	again, err := rawExchange(conn2, nil)
	if err != nil || again != first {
		t.Fatalf("new connection carried %v, %v; want %v again", again, err, first)
	}
	accept(conn2, again)
	established(<-call)

	// Third call: the same, but the server is gone altogether.
	call = open()
	if _, err := rawExchange(conn2, nil); err != nil {
		t.Fatal(err)
	}
	srvL.Close()
	conn2.Close()
	if r := <-call; r.err == nil || !strings.Contains(r.err.Error(), "server unreachable") {
		t.Fatalf("call to a vanished server: %v, want server unreachable", r.err)
	}
	drained(t, h)
}

// Closing the hosts and the listeners ends every goroutine the front
// started, on both sides, while the clients still hold their
// connections: RealHost.Close hangs up on them.
func TestRealCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b := startPeerPair(t, signaling.PeerNetConfig{}, signaling.PeerNetConfig{})
	srvC := &signaling.RealClient{SighostAddr: b.ListenAddr()}
	srvL, srvPort := listenTCP(t)
	if err := srvC.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	grants := acceptAll(srvL)
	cliC := &signaling.RealClient{SighostAddr: a.ListenAddr()}
	cliL, cliPort := listenTCP(t)
	for i := 0; i < 3; i++ {
		conn, err := cliC.OpenConnection("b.rt", "echo", cliL, cliPort, "", "")
		if err != nil {
			t.Fatal(err)
		}
		lifecycle(a, b, conn, <-grants)
	}
	cliL.Close()
	srvL.Close()
	b.Close()
	a.Close()
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	// The clients' connections are dead; the next RPC finds out.
	if err := cliC.ExportService("late", 1); err == nil {
		t.Error("RPC to a closed daemon succeeded")
	} else if errors.Is(err, signaling.ErrTimeout) {
		t.Errorf("RPC to a closed daemon timed out instead of failing: %v", err)
	}
}
