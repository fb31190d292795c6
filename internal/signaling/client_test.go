package signaling_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
	"xunet/internal/ulib"
)

// The client library is written once (client.go) over two transports.
// These tests pin its rules where only one library makes them testable:
// over a scripted transport, and as one table run over both.

// scripted is a Transport whose entity answers from a script, recording
// every request kind sent and every backoff slept.
type scripted struct {
	answer func(nth int, m sigmsg.Msg) (sigmsg.Msg, error)
	sent   []sigmsg.Kind
	slept  []time.Duration
}

func (s *scripted) Exchange(m sigmsg.Msg, _ time.Duration) (sigmsg.Msg, error) {
	s.sent = append(s.sent, m.Kind)
	return s.answer(len(s.sent), m)
}

func (s *scripted) Sleep(d time.Duration) { s.slept = append(s.slept, d) }

func (s *scripted) Now() time.Duration { return 0 }

// closeCount is a notify endpoint that never delivers.
type closeCount int

func (c *closeCount) Next(time.Duration) (signaling.Notice, sigmsg.Msg, error) {
	return nil, sigmsg.Msg{}, signaling.ErrTimeout
}

func (c *closeCount) Close() { *c++ }

func TestClientRetryRule(t *testing.T) {
	to := signaling.Timeouts{RPC: time.Second, Establish: time.Second,
		Attempts: 5, Backoff: 100 * time.Millisecond, MaxBackoff: 300 * time.Millisecond}
	ms := func(ds ...int) (out []time.Duration) {
		for _, d := range ds {
			out = append(out, time.Duration(d)*time.Millisecond)
		}
		return out
	}
	down := func(err error) func(int, sigmsg.Msg) (sigmsg.Msg, error) {
		return func(int, sigmsg.Msg) (sigmsg.Msg, error) { return sigmsg.Msg{}, err }
	}
	verbs := []struct {
		name string
		kind sigmsg.Kind
		do   func(c signaling.Client[*scripted]) error
	}{
		{"export", sigmsg.KindExportSrv, func(c signaling.Client[*scripted]) error { return c.ExportService("svc", 6000) }},
		{"unexport", sigmsg.KindUnexportSrv, func(c signaling.Client[*scripted]) error { return c.UnexportService("svc") }},
		{"cancel", sigmsg.KindCancelReq, func(c signaling.Client[*scripted]) error { return c.CancelRequest(7) }},
		{"query", sigmsg.KindMgmtQuery, func(c signaling.Client[*scripted]) error {
			_, err := c.Query(signaling.MgmtLists, 0, 0)
			return err
		}},
	}
	for _, v := range verbs {
		for _, fail := range []error{signaling.ErrTimeout, fmt.Errorf("%w: refused", signaling.ErrSignaling)} {
			t.Run(fmt.Sprintf("%s/%v", v.name, fail), func(t *testing.T) {
				s := &scripted{answer: down(fail)}
				err := v.do(signaling.Client[*scripted]{Transport: s, Timeouts: to})
				if !errors.Is(err, fail) && !errors.Is(err, signaling.ErrSignaling) {
					t.Fatalf("err = %v, want %v", err, fail)
				}
				var te *signaling.TimeoutError
				if errors.As(err, &te) && te.Attempt != 5 {
					t.Errorf("timeout reports attempt %d, want 5", te.Attempt)
				}
				if len(s.sent) != 5 || s.sent[0] != v.kind {
					t.Errorf("sent %v, want %v five times", s.sent, v.kind)
				}
				if want := ms(100, 200, 300, 300); fmt.Sprint(s.slept) != fmt.Sprint(want) {
					t.Errorf("backoff %v, want %v", s.slept, want)
				}
			})
		}
	}

	t.Run("recovers", func(t *testing.T) {
		s := &scripted{answer: func(nth int, m sigmsg.Msg) (sigmsg.Msg, error) {
			if nth < 3 {
				return sigmsg.Msg{}, signaling.ErrTimeout
			}
			return sigmsg.Msg{Kind: sigmsg.KindServiceRegs}, nil
		}}
		if err := (signaling.Client[*scripted]{Transport: s, Timeouts: to}).ExportService("svc", 6000); err != nil {
			t.Fatal(err)
		}
		if len(s.sent) != 3 || fmt.Sprint(s.slept) != fmt.Sprint(ms(100, 200)) {
			t.Errorf("sent %d, slept %v; want 3 and [100ms 200ms]", len(s.sent), s.slept)
		}
	})

	t.Run("connect is sent once", func(t *testing.T) {
		s := &scripted{answer: down(signaling.ErrTimeout)}
		var n closeCount
		_, err := signaling.Client[*scripted]{Transport: s, Timeouts: to}.OpenConnection(&n, "ucb.rt", "svc", 7000, "", "", 1)
		if !errors.Is(err, signaling.ErrTimeout) {
			t.Fatalf("err = %v", err)
		}
		if len(s.sent) != 1 || len(s.slept) != 0 {
			t.Errorf("CONNECT_REQ sent %d times after %v of backoff, want once", len(s.sent), s.slept)
		}
		if n != 1 {
			t.Errorf("notify endpoint closed %d times, want 1", n)
		}
	})

	for _, tc := range []struct {
		name  string
		reply sigmsg.Msg
		err   error
	}{
		{"refused", sigmsg.Msg{Kind: sigmsg.KindError, Reason: "no such service"}, nil},
		{"wrong kind", sigmsg.Msg{Kind: sigmsg.KindReqID}, nil},
		{"undecodable", sigmsg.Msg{}, fmt.Errorf("%w: truncated", signaling.ErrProtocol)},
	} {
		t.Run("protocol error/"+tc.name, func(t *testing.T) {
			s := &scripted{answer: func(int, sigmsg.Msg) (sigmsg.Msg, error) { return tc.reply, tc.err }}
			err := signaling.Client[*scripted]{Transport: s, Timeouts: to}.ExportService("svc", 6000)
			if !errors.Is(err, signaling.ErrProtocol) || !strings.Contains(err.Error(), tc.reply.Reason) {
				t.Fatalf("err = %v", err)
			}
			if len(s.sent) != 1 {
				t.Errorf("sent %d times, want once", len(s.sent))
			}
		})
	}
}

// TestRealOpenTimeoutCancelsRequest: a server that takes the request and
// never answers leaves the call with no timer at either daemon, so the
// caller's establishment timeout must cancel it.
func TestRealOpenTimeoutCancelsRequest(t *testing.T) {
	r := realRig(t)
	conn, err := r.call(t, "silent", nil, 100*time.Millisecond)
	if !errors.Is(err, signaling.ErrTimeout) {
		t.Fatalf("OpenConnection = %v, %v; want ErrTimeout", conn, err)
	}
	r.drained(t)
}

// A server's notify endpoint drops a notification that is not
// INCOMING_CONN, and the server keeps waiting for its next call.
func TestRealAwaitDropsOtherNotifications(t *testing.T) {
	l, _ := listenTCP(t)
	got := make(chan *signaling.ServiceRequest, 1)
	go func() {
		req, err := signaling.AwaitServiceRequest(l)
		if err != nil {
			t.Error(err)
		}
		got <- req
	}()
	send := func(m sigmsg.Msg) net.Conn {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := signaling.WriteFrame(conn, m.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	stray := send(sigmsg.Msg{Kind: sigmsg.KindVCIForConn, Cookie: 9, VCI: 40})
	if _, err := stray.Read(make([]byte, 1)); err == nil {
		t.Fatal("the stray notification's connection was answered, not dropped")
	}
	send(sigmsg.Msg{Kind: sigmsg.KindIncomingConn, Cookie: 7, Service: "echo"})
	if req := <-got; req == nil || req.Cookie != 7 {
		t.Fatalf("AwaitServiceRequest returned %+v, want the INCOMING_CONN for cookie 7", req)
	}
}

// clientRig is one deployment the conformance table runs on: a client
// application at one entity, a server application at another.
type clientRig struct {
	export func(service string) error
	query  func(what string) error
	cancel func(cookie uint16) error
	// call exports service at the far entity with a server that hands
	// the first request to serve (nil: never answers), then opens a call
	// to it from the near one.
	call    func(t *testing.T, service string, serve func(*signaling.ServiceRequest), establish time.Duration) (*signaling.Connection, error)
	drained func(t *testing.T)
}

// simRig is the paper's testbed: ulib over kern.Proc, in virtual time.
func simRig(t *testing.T) clientRig {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	run := func(fn func(p *kern.Proc)) {
		done := false
		ra.Stack.Spawn("client", func(p *kern.Proc) { fn(p); done = true })
		for i := 0; !done && i < 600; i++ {
			n.E.RunUntil(n.E.Now() + time.Second)
		}
		if !done {
			t.Fatal("client application did not return")
		}
	}
	rig := clientRig{
		export: func(service string) (err error) {
			run(func(p *kern.Proc) { err = ra.Lib.ExportService(p, service, 6000) })
			return err
		},
		query: func(what string) (err error) {
			run(func(p *kern.Proc) { _, err = ra.Lib.Client(p).Query(what, 0, 0) })
			return err
		},
		cancel: func(cookie uint16) (err error) {
			run(func(p *kern.Proc) { err = ra.Lib.Client(p).CancelRequest(cookie) })
			return err
		},
		call: func(t *testing.T, service string, serve func(*signaling.ServiceRequest), establish time.Duration) (conn *signaling.Connection, err error) {
			rb.Stack.Spawn("server", func(p *kern.Proc) {
				if err := rb.Lib.ExportService(p, service, 6000); err != nil {
					t.Error(err)
					return
				}
				kl, _ := rb.Lib.CreateReceiveConnection(p, 6000)
				if req, err := rb.Lib.AwaitServiceRequest(p, kl); err == nil && serve != nil {
					serve(req)
				}
				p.SP.Park() // alive, so its exit does not end the call
			})
			ra.Lib.SetTimeouts(ulib.Timeouts{Establish: establish})
			run(func(p *kern.Proc) {
				p.SP.Sleep(100 * time.Millisecond)
				conn, err = ra.Lib.OpenConnection(p, "ucb.rt", service, 7000, "conformance", "vbr:256")
			})
			n.E.RunUntil(n.E.Now() + time.Second) // the server's side of the exchange
			return conn, err
		},
		drained: func(t *testing.T) {
			n.E.RunUntil(n.E.Now() + 5*time.Second)
			if leaks := n.Audit(); leaks != nil {
				t.Error(leaks)
			}
		},
	}
	return rig
}

// realRig is two peered daemons on the loopback: RealClient over
// net.Conn, in wall-clock time. Both registries are scraped off the
// actors for the rig's lifetime.
func realRig(t *testing.T) clientRig {
	a, b := startPeerPair(t, signaling.PeerNetConfig{}, signaling.PeerNetConfig{})
	t.Cleanup(scrape(a, b))
	cli := &signaling.RealClient{SighostAddr: a.ListenAddr()}
	t.Cleanup(cli.Close)
	return clientRig{
		export: func(service string) error { return cli.ExportService(service, 6000) },
		query: func(what string) error {
			_, err := cli.Client().Query(what, 0, 0)
			return err
		},
		cancel: cli.Client().CancelRequest,
		call: func(t *testing.T, service string, serve func(*signaling.ServiceRequest), establish time.Duration) (*signaling.Connection, error) {
			srv := &signaling.RealClient{SighostAddr: b.ListenAddr()}
			t.Cleanup(srv.Close)
			srvL, srvPort := listenTCP(t)
			if err := srv.ExportService(service, srvPort); err != nil {
				t.Fatal(err)
			}
			go func() {
				if req, err := signaling.AwaitServiceRequest(srvL); err == nil && serve != nil {
					serve(req)
				}
			}()
			cliL, cliPort := listenTCP(t)
			c := &signaling.RealClient{SighostAddr: a.ListenAddr(), EstablishTimeout: establish}
			t.Cleanup(c.Close)
			return c.OpenConnection("b.rt", service, cliL, cliPort, "conformance", "vbr:256")
		},
		drained: func(t *testing.T) { drained(t, a, b) },
	}
}

// TestClientConformance runs one table over both transports: each row's
// outcome is the library's, not the transport's.
func TestClientConformance(t *testing.T) {
	type accepted struct {
		vci    atm.VCI
		cookie uint16
		qos    string
		err    error
	}
	rows := []struct {
		name string
		run  func(t *testing.T, r clientRig)
	}{
		{"export", func(t *testing.T, r clientRig) {
			if err := r.export("svc"); err != nil {
				t.Fatal(err)
			}
		}},
		{"unknown query", func(t *testing.T, r clientRig) {
			if err := r.query("bogus"); !errors.Is(err, signaling.ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
		}},
		{"cancel unknown cookie", func(t *testing.T, r clientRig) {
			if err := r.cancel(0xDEAD); !errors.Is(err, signaling.ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
		}},
		{"accept", func(t *testing.T, r clientRig) {
			got := make(chan accepted, 1)
			conn, err := r.call(t, "echo", func(req *signaling.ServiceRequest) {
				vci, qos, err := req.Accept("vbr:128")
				got <- accepted{vci, req.Cookie, qos, err}
			}, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			srv := <-got
			if srv.err != nil {
				t.Fatal(srv.err)
			}
			// Each entity grants from its own pools: every end holds a
			// circuit and a capability of its own, and one negotiated QoS.
			if conn.VCI == 0 || conn.Cookie == 0 || srv.vci == 0 || srv.cookie == 0 {
				t.Errorf("client holds vci %d cookie %d, server vci %d cookie %d", conn.VCI, conn.Cookie, srv.vci, srv.cookie)
			}
			if conn.QoS != "vbr:128" || srv.qos != "vbr:128" {
				t.Errorf("negotiated QoS: client %q, server %q; want the server's vbr:128", conn.QoS, srv.qos)
			}
		}},
		{"reject", func(t *testing.T, r clientRig) {
			_, err := r.call(t, "picky", func(req *signaling.ServiceRequest) { _ = req.Reject("not today") }, 10*time.Second)
			if !errors.Is(err, signaling.ErrFailed) || !strings.Contains(err.Error(), "not today") {
				t.Fatalf("err = %v, want ErrFailed with the server's reason", err)
			}
		}},
		{"establish timeout", func(t *testing.T, r clientRig) {
			_, err := r.call(t, "silent", nil, time.Second)
			if !errors.Is(err, signaling.ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			r.drained(t)
		}},
	}
	for _, mode := range []struct {
		name string
		rig  func(*testing.T) clientRig
	}{{"sim", simRig}, {"real", realRig}} {
		for _, row := range rows {
			t.Run(mode.name+"/"+row.name, func(t *testing.T) { row.run(t, mode.rig(t)) })
		}
	}
}
