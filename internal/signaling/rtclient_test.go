package signaling_test

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
)

// The client keeps one connection to the daemon across RPCs. These
// tests pin what it does when that connection, or the daemon behind it,
// lets it down.

// fakeDaemon accepts RPC connections and hands every request frame to
// answer, which writes what it likes and returns false to hang up.
func fakeDaemon(t *testing.T, answer func(conn net.Conn, nth int, m sigmsg.Msg) bool) (addr string, conns *atomic.Int32) {
	l, _ := listenTCP(t)
	conns = new(atomic.Int32)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			nth := int(conns.Add(1))
			go func() {
				defer conn.Close()
				for {
					raw, err := signaling.ReadFrame(conn)
					if err != nil {
						return
					}
					m, err := sigmsg.Decode(raw)
					if err != nil || !answer(conn, nth, m) {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), conns
}

func reply(conn net.Conn, m sigmsg.Msg) bool {
	return signaling.WriteFrame(conn, m.AppendTo(nil)) == nil
}

// A daemon restarted on the same address has hung up on every kept
// connection. The next RPC finds that out before any reply byte, so it
// is sent again on a new connection — an idempotent one and a
// CONNECT_REQ alike.
func TestRealClientSurvivesDaemonRestart(t *testing.T) {
	h, err := signaling.StartReal("mh.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	addr := h.ListenAddr()
	srvC := &signaling.RealClient{SighostAddr: addr}
	defer srvC.Close()
	cliC := &signaling.RealClient{SighostAddr: addr}
	defer cliC.Close()
	srvL, srvPort := listenTCP(t)
	if err := srvC.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	if _, err := cliC.Client().Query(signaling.MgmtLists, 0, 0); err != nil {
		t.Fatal(err)
	}
	h.Close()
	var h2 *signaling.RealHost
	waitFor(t, "the address to be free again", func() bool {
		h2, err = signaling.StartReal("mh.rt", addr)
		return err == nil
	})
	defer h2.Close()

	if err := srvC.ExportService("echo", srvPort); err != nil {
		t.Fatalf("idempotent RPC after a restart: %v", err)
	}
	grants := acceptAll(srvL)
	cliL, cliPort := listenTCP(t)
	conn, err := cliC.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
	if err != nil {
		t.Fatalf("OpenConnection after a restart: %v", err)
	}
	if g := <-grants; g.err != nil || g.vci != conn.VCI {
		t.Fatalf("server granted %v (%v), client opened %v", g.vci, g.err, conn.VCI)
	}
	if n := count("rtenv.app_conns.accepted", h2); n != 2 {
		t.Errorf("restarted daemon accepted %d RPC connections, want one per client", n)
	}
	if n := count("sighost.calls.established", h2); n != 2 {
		t.Errorf("%d call ends established, want 2: CONNECT_REQ must act once", n)
	}
}

// CONNECT_REQ allocates a cookie, so it goes out a second time only when
// the first cannot have been acted on by a daemon that is still there: a
// kept connection that failed before any reply byte. One byte of reply
// and the failure is the caller's to handle.
func TestRealConnectReqResentOnlyBeforeReplyByte(t *testing.T) {
	for _, tc := range []struct {
		name      string
		replyByte bool
		want      int32
	}{
		{"hung up silently", false, 2},
		{"hung up mid-reply", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var connectReqs atomic.Int32
			addr, _ := fakeDaemon(t, func(conn net.Conn, _ int, m sigmsg.Msg) bool {
				if m.Kind != sigmsg.KindConnectReq {
					return reply(conn, sigmsg.Msg{Kind: sigmsg.KindServiceRegs})
				}
				connectReqs.Add(1)
				if tc.replyByte {
					conn.Write([]byte{0})
				}
				return false
			})
			c := &signaling.RealClient{SighostAddr: addr}
			defer c.Close()
			if err := c.ExportService("warm", 1); err != nil { // leaves a kept connection
				t.Fatal(err)
			}
			l, port := listenTCP(t)
			if _, err := c.OpenConnection("mh.rt", "echo", l, port, "", ""); err == nil {
				t.Fatal("OpenConnection succeeded against a daemon that hangs up")
			}
			if got := connectReqs.Load(); got != tc.want {
				t.Errorf("daemon saw CONNECT_REQ %d times, want %d", got, tc.want)
			}
		})
	}
}

// A reply that misses its deadline must not be read as the answer to
// the next request: the timeout discards the connection, and the next
// RPC gets a fresh one.
func TestRealReplyTimeoutDiscardsConnection(t *testing.T) {
	late := make(chan struct{})
	addr, conns := fakeDaemon(t, func(conn net.Conn, nth int, m sigmsg.Msg) bool {
		if nth == 1 {
			time.Sleep(150 * time.Millisecond)
			ok := reply(conn, sigmsg.Msg{Kind: sigmsg.KindServiceRegs})
			close(late)
			return ok
		}
		return reply(conn, sigmsg.Msg{Kind: m.Kind, Cookie: m.Cookie})
	})
	c := &signaling.RealClient{SighostAddr: addr, ReplyTimeout: 30 * time.Millisecond}
	defer c.Close()
	if err := c.ExportService("slow", 1); !errors.Is(err, signaling.ErrTimeout) {
		t.Fatalf("err = %v, want a reply timeout", err)
	}
	<-late // the stale SERVICE_REGS is on the wire of the first connection
	c.ReplyTimeout = 10 * time.Second
	if err := c.Client().CancelRequest(7); err != nil {
		t.Fatalf("RPC after a timeout: %v (a stale reply would read as an unexpected kind)", err)
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("client used %d connections, want 2", n)
	}
}

// A declined call completes its exchange as surely as an accepted one:
// both notify connections are parked and the next call rides them.
func TestRealRejectParksConnections(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer c.Close()
	srvL, srvPort := listenTCP(t)
	if err := c.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	go func() {
		req, err := signaling.AwaitServiceRequest(srvL)
		if err == nil {
			err = req.Reject("busy")
		}
		if err != nil {
			t.Error(err)
		}
	}()
	cliL, cliPort := listenTCP(t)
	if _, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", ""); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("rejected call: err = %v", err)
	}
	grants := acceptAll(srvL)
	conn, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if g := <-grants; g.err != nil {
		t.Fatal(g.err)
	}
	hangUpCall(h, conn.VCI)
	if d, r := count("rtenv.notify.dialed", h), count("rtenv.notify.reused", h); d != 2 || r != 2 {
		t.Errorf("two calls dialed %d and reused %d notify connections, want 2 and 2", d, r)
	}
	drained(t, h)
}
