package signaling_test

import (
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/sigmsg"
	"xunet/internal/testbed"
)

// TestThirdPartyCookieHandoff exercises §7.1: "A cookie can be handed
// to a child of the server application or any third party." The server
// accepts the call but a *different process* binds the VCI with the
// cookie — authentication is capability-based, not process-based.
func TestThirdPartyCookieHandoff(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	type grant struct {
		vci    uint16
		cookie uint16
	}
	handoff := make(chan grant, 1) // test-side channel; the sim world passes values via closure
	var received []byte
	rb.Stack.Spawn("parent-server", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "fs", 6000)
		kl, _ := rb.Lib.CreateReceiveConnection(p, 6000)
		req, err := rb.Lib.AwaitServiceRequest(p, kl)
		if err != nil {
			return
		}
		vci, _, err := req.Accept(req.QoS)
		if err != nil {
			return
		}
		// Hand the capability to a third-party process.
		g := grant{vci: uint16(vci), cookie: req.Cookie}
		select {
		case handoff <- g:
		default:
		}
		rb.Stack.Spawn("third-party", func(w *kern.Proc) {
			sock, _ := rb.Stack.PF.Socket(w)
			if err := sock.Bind(vci, g.cookie); err != nil {
				t.Errorf("third party bind: %v", err)
				return
			}
			msg, err := sock.Recv()
			if err != nil {
				return
			}
			received = msg
		})
	})
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		res := testbed.OpenAndUseFrames(ra, p, "ucb.rt", "fs", 7000, "", 1, 0, nil)
		if res.Err != nil {
			t.Errorf("call: %v", res.Err)
		}
	})
	n.E.RunUntil(time.Minute)
	if rb.Sig.SH.Obs.Snapshot().Count("sighost.auth_failures") != 0 {
		t.Fatalf("auth failures = %d", rb.Sig.SH.Obs.Snapshot().Count("sighost.auth_failures"))
	}
	if string(received) != "frame 0" {
		t.Fatalf("third party received %q", received)
	}
	n.E.Shutdown()
}

// TestSighostSurvivesGarbage feeds the RPC port undecodable frames and
// valid-kind messages with nonsense fields: the robustness goal of §4
// ("we did not want to crash the signaling entity or the kernel because
// of a misbehaving application").
func TestSighostSurvivesGarbage(t *testing.T) {
	// A large fd table so mallory's 40 throwaway IPC connections are
	// not themselves throttled by TIME_WAIT descriptor retention.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	testbed.StartEchoServer(rb, "echo", 6000)
	ra.Stack.Spawn("mallory", func(p *kern.Proc) {
		rng := ra.Stack.M.E.Rand()
		for i := 0; i < 40; i++ {
			ks, err := p.Dial(ra.Stack.M.IP.Addr, 177)
			if err != nil {
				t.Error(err)
				return
			}
			switch i % 4 {
			case 0: // random bytes
				junk := make([]byte, rng.Intn(64))
				for j := range junk {
					junk[j] = byte(rng.Uint64())
				}
				_ = ks.Send(junk)
			case 1: // valid kind, nonsense fields
				_ = ks.Send((&sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: uint16(rng.Uint64())}).AppendTo(nil))
			case 2: // a peer-only message on the app port
				_ = ks.Send((&sigmsg.Msg{Kind: sigmsg.KindSetup, CallID: 99, Service: "x"}).AppendTo(nil))
			case 3: // empty frame
				_ = ks.Send(nil)
			}
			p.SP.Sleep(5 * time.Millisecond)
			ks.Close()
		}
	})
	// A legitimate client must still get through afterwards.
	var res testbed.CallResult
	ra.Stack.Spawn("honest-client", func(p *kern.Proc) {
		p.SP.Sleep(2 * time.Second)
		res = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "echo", 7000, "", 1, 0, nil)
	})
	n.E.RunUntil(time.Minute)
	if res.Err != nil {
		t.Fatalf("honest call after garbage: %v", res.Err)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestHalfOpenRemoteFailure is §4's half-open scenario: the remote
// application fails mid-call; the local application is told its socket
// is dead via the kernel.
func TestHalfOpenRemoteFailure(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "echo", 6000)
	var recvErr error
	done := false
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		conn, err := ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		// Bind a *receiving* socket on the circuit's VCI at the client
		// side is not possible (simplex); instead hold the sending
		// socket and wait for the disconnect after the server dies.
		sock, _ := ra.Stack.PF.Socket(p)
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			t.Error(err)
			return
		}
		p.SP.Sleep(3 * time.Second) // server is killed during this hold
		recvErr = sock.Send([]byte("are you there?"))
		done = true
	})
	n.E.Schedule(1500*time.Millisecond, func() { srv.Kill() })
	n.E.RunUntil(time.Minute)
	if !done {
		t.Fatal("client hung")
	}
	if recvErr == nil {
		t.Fatal("send succeeded on a half-open circuit after remote death")
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}
