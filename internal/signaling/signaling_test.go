package signaling_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

func TestRegisterService(t *testing.T) {
	n, ra, _, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var regErr error
	ra.Stack.Spawn("server", func(p *kern.Proc) {
		regErr = ra.Lib.ExportService(p, "file-service", 6000)
	})
	n.E.RunUntil(5 * time.Second)
	if regErr != nil {
		t.Fatal(regErr)
	}
	svc, _, _, _, _ := ra.Sig.SH.ListSizes()
	if svc != 1 {
		t.Fatalf("service_list size = %d", svc)
	}
	n.E.Shutdown()
}

func TestUnexportService(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var unexpErr, missingErr error
	ra.Stack.Spawn("server", func(p *kern.Proc) {
		_ = ra.Lib.ExportService(p, "temp", 6000)
		unexpErr = ra.Lib.UnexportService(p, "temp")
		missingErr = ra.Lib.UnexportService(p, "temp")
	})
	n.E.RunUntil(5 * time.Second)
	if unexpErr != nil {
		t.Fatal(unexpErr)
	}
	if missingErr == nil {
		t.Fatal("unexport of missing service succeeded")
	}
	svc, _, _, _, _ := ra.Sig.SH.ListSizes()
	if svc != 0 {
		t.Fatalf("service_list size = %d", svc)
	}
	n.E.Shutdown()
}

// TestRouterToRouterCall is the paper's core flow: a client on one
// router calls an echo service on the other, sends frames on the
// granted VCI with cookie authentication, and the server receives them.
func TestRouterToRouterCall(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "echo", 6000)
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond) // let the server register
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 5, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err != nil {
		t.Fatalf("call failed: %v", res.Err)
	}
	if srv.Accepted != 1 {
		t.Fatalf("accepted = %d", srv.Accepted)
	}
	if srv.Received != 5 {
		t.Fatalf("received = %d frames", srv.Received)
	}
	n.E.Shutdown()
}

func TestCallSetupWithoutLoggingIsFast(t *testing.T) {
	// E3 ablation: disabling the per-call maintenance logging collapses
	// setup time by roughly an order of magnitude.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{DisableCallLogging: true})
	testbed.StartEchoServer(rb, "echo", 6000)
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 0, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SetupTime > 100*time.Millisecond {
		t.Fatalf("setup without logging took %v", res.SetupTime)
	}
	n.E.Shutdown()
}

func TestLocalCall(t *testing.T) {
	// Client and server on the same router: the SETUP loops back
	// through the same sighost.
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(ra, "local-echo", 6000)
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res = testbed.OpenAndUseFrames(ra, p, "mh.rt", "local-echo", 7000, "", 3, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err != nil {
		t.Fatalf("local call failed: %v", res.Err)
	}
	if srv.Received != 3 {
		t.Fatalf("received = %d", srv.Received)
	}
	n.E.Shutdown()
}

func TestHostToHostCall(t *testing.T) {
	// The full §7.4 path: client on an IP host behind router A, server
	// on an IP host behind router B. Data crosses FDDI, the ATM WAN,
	// and FDDI again; QoS negotiation is proxied.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	hostA, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := n.AddHost("ucb.h1", rb)
	if err != nil {
		t.Fatal(err)
	}
	srv := testbed.StartEchoServer(hostB, "h-echo", 6000)
	var res testbed.CallResult
	hostA.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(200 * time.Millisecond)
		res = testbed.OpenAndUseFrames(hostA, p, "ucb.rt", "h-echo", 7000, "", 4, 0, nil)
	})
	n.E.RunUntil(15 * time.Second)
	if res.Err != nil {
		t.Fatalf("host-to-host call failed: %v", res.Err)
	}
	if srv.Received != 4 {
		t.Fatalf("received = %d", srv.Received)
	}
	// anand server must have installed the VCI_BIND for the host server.
	if rb.Sig.Anand.Binds == 0 {
		t.Fatal("no VCI_BIND at the remote router")
	}
	n.E.Shutdown()
}

func TestQoSNegotiation(t *testing.T) {
	// Client asks for CBR 2 Mb/s; server counter-offers CBR 1 Mb/s; the
	// client sees the negotiated descriptor.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "nego", 6000)
	srv.ModifyQoS = "cbr:1000"
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "nego", 7000, "cbr:2000", 0, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.QoS != "cbr:1000" {
		t.Fatalf("negotiated QoS = %q, want cbr:1000", res.QoS)
	}
	n.E.Shutdown()
}

func TestQoSNeverUpgraded(t *testing.T) {
	// A server trying to *increase* the QoS is clamped to the request.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "greedy", 6000)
	srv.ModifyQoS = "cbr:9000"
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "greedy", 7000, "vbr:500", 0, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got, err := qos.Parse(res.QoS)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := qos.Parse("vbr:500")
	if got.Class > want.Class || got.BandwidthKbs > want.BandwidthKbs {
		t.Fatalf("negotiated %v exceeds request %v", got, want)
	}
	n.E.Shutdown()
}

func TestUnknownServiceRejected(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "no-such-service", 7000, "", 0, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err == nil {
		t.Fatal("call to unknown service succeeded")
	}
	if !errors.Is(res.Err, signaling.ErrFailed) {
		t.Fatalf("err = %v", res.Err)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestServerRejectsCall(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	rb.Stack.Spawn("picky-server", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "picky", 6000)
		kl, _ := rb.Lib.CreateReceiveConnection(p, 6000)
		req, err := rb.Lib.AwaitServiceRequest(p, kl)
		if err != nil {
			return
		}
		_ = req.Reject("not today")
	})
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "picky", 7000, "", 0, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "not today") {
		t.Fatalf("err = %v", res.Err)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestAdmissionRejectionPropagatesToClient(t *testing.T) {
	// The DS3 trunk holds 45 Mb/s; a 60 Mb/s CBR call passes the server
	// but fails network admission, and the client hears about it.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "big", 6000)
	var res testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "big", 7000, "cbr:60000", 0, 0, nil)
	})
	n.E.RunUntil(10 * time.Second)
	if res.Err == nil {
		t.Fatal("oversubscribed call succeeded")
	}
	if !strings.Contains(res.Err.Error(), "admission") {
		t.Fatalf("err = %v", res.Err)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestTeardownOnClientClose(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "echo", 6000)
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res := testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 2, 0, nil)
		if res.Err != nil {
			t.Errorf("call: %v", res.Err)
		}
		// OpenAndUse closed the socket; teardown propagates.
	})
	n.E.RunUntil(20 * time.Second)
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestBindTimeoutReclaimsVCI(t *testing.T) {
	// A client that opens a connection but never connects its socket:
	// the per-VCI timer reclaims the circuit.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "echo", 6000)
	var opened bool
	ra.Stack.Spawn("lazy-client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		conn, err := ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
		opened = err == nil && conn != nil
		// ... and never uses the VCI.
	})
	n.E.RunUntil(2 * n.CM.BindTimeout)
	if !opened {
		t.Fatal("open failed")
	}
	if ra.Sig.SH.Obs.Snapshot().Count("sighost.bind_timeouts") == 0 {
		t.Fatal("no bind timeout fired")
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestCookieAuthenticationFailure(t *testing.T) {
	// A malicious process binds the granted VCI with a guessed cookie:
	// the call is torn down and the socket marked unusable.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "echo", 6000)
	var sendErr error
	ra.Stack.Spawn("mallory", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		conn, err := ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		sock, _ := ra.Stack.PF.Socket(p)
		badCookie := conn.Cookie + 1
		_ = sock.Connect(conn.VCI, badCookie)
		p.SP.Sleep(time.Second) // let the auth failure round-trip
		sendErr = sock.Send([]byte("stolen data"))
	})
	n.E.RunUntil(10 * time.Second)
	if ra.Sig.SH.Obs.Snapshot().Count("sighost.auth_failures") == 0 {
		t.Fatal("auth failure not detected")
	}
	if sendErr == nil {
		t.Fatal("send on unauthenticated socket succeeded")
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestBindToUngrantedVCIDisconnected(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var recvErr error
	ra.Stack.Spawn("squatter", func(p *kern.Proc) {
		sock, _ := ra.Stack.PF.Socket(p)
		_ = sock.Bind(999, 0x1234)
		_, recvErr = sock.Recv()
	})
	n.E.RunUntil(5 * time.Second)
	if ra.Sig.SH.Obs.Snapshot().Count("sighost.auth_failures") == 0 {
		t.Fatal("squat not detected")
	}
	if recvErr == nil {
		t.Fatal("squatted socket still usable")
	}
	n.E.Shutdown()
}

func TestCancelRequest(t *testing.T) {
	// Cancel an outstanding request to a service whose server never
	// answers (it exported but blocks before accepting).
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	rb.Stack.Spawn("sleepy-server", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "sleepy", 6000)
		_, _ = rb.Lib.CreateReceiveConnection(p, 6000)
		p.SP.Park() // exported, listening, never accepts the IPC
	})
	var cancelErr error
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		// Issue the raw CONNECT_REQ via the library internals: open a
		// listener, send the request, then cancel by cookie.
		kl, _ := p.Listen(7000)
		defer kl.Close()
		ks, err := p.Dial(ra.Stack.M.IP.Addr, 177)
		if err != nil {
			t.Error(err)
			return
		}
		_ = ks.Send(encodeConnectReq("ucb.rt", "sleepy", 7000))
		raw, ok := ks.Recv()
		ks.Close()
		if !ok {
			t.Error("no REQ_ID")
			return
		}
		cookie := decodeCookie(raw)
		p.SP.Sleep(100 * time.Millisecond)
		cancelErr = ra.Lib.Client(p).CancelRequest(cookie)
	})
	n.E.RunUntil(10 * time.Second)
	if cancelErr != nil {
		t.Fatalf("cancel: %v", cancelErr)
	}
	if ra.Sig.SH.Obs.Snapshot().Count("sighost.calls.canceled") != 1 {
		t.Fatalf("canceled = %d", ra.Sig.SH.Obs.Snapshot().Count("sighost.calls.canceled"))
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestKillDuringStages reproduces §10: "We also ran tests where clients
// and servers were terminated during various stages of the call setup
// process. The network and signaling state were always correctly
// restored."
func TestKillDuringStages(t *testing.T) {
	// Kill the client at several points of the setup; afterwards all
	// transient state must drain on both routers.
	for _, killAfter := range []time.Duration{
		120 * time.Millisecond, // while SETUP is in flight
		300 * time.Millisecond, // around fabric programming
		600 * time.Millisecond, // established, maybe unbound
		2 * time.Second,        // established and in use
	} {
		n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
		testbed.StartEchoServer(rb, "echo", 6000)
		victim := ra.Stack.Spawn("doomed", func(p *kern.Proc) {
			p.SP.Sleep(100 * time.Millisecond)
			res := testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 1, 0,
				func(p *kern.Proc) { p.SP.Sleep(time.Hour) })
			_ = res
		})
		n.E.Schedule(killAfter, func() { victim.Kill() })
		n.E.RunUntil(2 * n.CM.BindTimeout)
		if leaks := n.Audit(); leaks != nil {
			t.Fatalf("killAfter=%v: %s", killAfter, leaks)
		}
		n.E.Shutdown()
	}
}

// holdTwoRequests starts a server on rb that exports "sleepy" and never
// answers, and a client on ra that opens two requests to it, 100 ms in,
// then runs then. It returns the client.
func holdTwoRequests(t *testing.T, ra, rb *testbed.Router, then func(p *kern.Proc, pending []*signaling.PendingConnection)) *kern.Proc {
	rb.Stack.Spawn("sleepy-server", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "sleepy", 6000)
		_, _ = rb.Lib.CreateReceiveConnection(p, 6000)
		p.SP.Park() // exported, listening, never accepts the IPC
	})
	return ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		var pending []*signaling.PendingConnection
		for port := uint16(7000); port < 7002; port++ {
			pc, err := ra.Lib.OpenConnectionAsync(p, "ucb.rt", "sleepy", port, "", "")
			if err != nil {
				t.Error(err)
				return
			}
			pending = append(pending, pc)
		}
		then(p, pending)
	})
}

// TestExitEndsRequestsNewestFirst kills a process while its server holds
// two of its requests: §7.2's exit indication ends both, the newer first.
func TestExitEndsRequestsNewestFirst(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	chains := signaling.WatchChains(ra.Sig.SH)
	client := holdTwoRequests(t, ra, rb, func(p *kern.Proc, _ []*signaling.PendingConnection) { p.SP.Park() })
	n.E.Schedule(time.Second, client.Kill)
	n.E.RunUntil(time.Minute)
	want := []string{"call 2: client terminated", "call 1: client terminated"}
	if got := chains.Ends(); !slices.Equal(got, want) {
		t.Errorf("ends %q, want %q", got, want)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestPeerDeathEndsCallsInCreationOrder silences the signaling link
// while a server holds two requests: each router's keepalive declares
// its peer dead and ends both calls in the order they were made.
func TestPeerDeathEndsCallsInCreationOrder(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{Faults: &faults.Config{}})
	chains := []*signaling.Chains{signaling.WatchChains(ra.Sig.SH), signaling.WatchChains(rb.Sig.SH)}
	holdTwoRequests(t, ra, rb, func(p *kern.Proc, pending []*signaling.PendingConnection) {
		for _, pc := range pending {
			if _, err := pc.Await(); err == nil {
				t.Error("a held request was established")
			}
		}
	})
	n.E.Schedule(time.Second, func() {
		ra.Sig.Faults = faults.NewPlane(faults.Config{SigLoss: 1})
		rb.Sig.Faults = faults.NewPlane(faults.Config{SigLoss: 1})
	})
	n.E.Schedule(20*time.Second, func() { ra.Sig.Faults, rb.Sig.Faults = n.Faults, n.Faults })
	n.E.RunUntil(time.Minute)
	want := []string{"call 1: peer signaling entity dead", "call 2: peer signaling entity dead"}
	for _, ch := range chains {
		if got := ch.Ends(); !slices.Equal(got, want) {
			t.Errorf("ends %q, want %q", got, want)
		}
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestKillServerMidCall(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "echo", 6000)
	done := false
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 2, 0, func(p *kern.Proc) {
			p.SP.Sleep(3 * time.Second) // hold while the server dies
		})
		done = true
	})
	n.E.Schedule(2*time.Second, func() { srv.Kill() })
	n.E.RunUntil(2 * n.CM.BindTimeout)
	if !done {
		t.Fatal("client never finished")
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// figureTrace runs the Figures 3 and 4 scenario, a client on mh.rt
// calling an echo server on ucb.rt once, and returns the Trace line log
// of the router at index i.
func figureTrace(i int) []byte {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	var trace strings.Builder
	[]*testbed.Router{ra, rb}[i].Sig.SH.Trace = func(line string) { trace.WriteString(line + "\n") }
	testbed.StartEchoServer(rb, "echo", 6000)
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 0, 0, nil)
	})
	n.E.RunUntil(5 * time.Second)
	n.E.Shutdown()
	return []byte(trace.String())
}

// Figure 3: the golden message trace for a server registering itself
// and accepting one call, as the server's router logs it.
func TestFigure3ServerRegistrationTrace(t *testing.T) {
	checkGolden(t, "figure3", figureTrace(1))
}

// Figure 4: the golden message trace for a client establishing a call,
// as the client's router logs it.
func TestFigure4ClientCallTrace(t *testing.T) {
	checkGolden(t, "figure4", figureTrace(0))
}

// --- small helpers used by TestCancelRequest ---

func encodeConnectReq(dest, service string, port uint16) []byte {
	return (&sigmsg.Msg{
		Kind: sigmsg.KindConnectReq, Dest: atm.Addr(dest), Service: service, NotifyPort: port,
	}).AppendTo(nil)
}

func decodeCookie(raw []byte) uint16 {
	m, err := sigmsg.Decode(raw)
	if err != nil {
		return 0
	}
	return m.Cookie
}
