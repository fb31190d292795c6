package signaling

import (
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

// The Env contract both environments keep, as one table run over
// simEnv and realEnv: what a timer does however it ends, what Dial's
// callback and a loopback SendPeer look like from the actor, and that
// KernelDisconnect is safe to call.

// envRig is one environment under the table: its Env, the Sighost over
// it, and a way to drive its actor.
type envRig struct {
	sh     *Sighost
	env    Env
	ip     memnet.IPAddr // the env's own machine
	timers *timers
	// do runs fn in actor context and returns once it has run.
	do func(fn func())
	// settle lets armed 1 ms timers fire and everything queued dispatch.
	settle func()
	// busy, called inside do, holds the actor for d, as a slow handler
	// would.
	busy func(d time.Duration)
	// next, called inside do, queues fn as the actor's next input: ahead
	// of any timer that fires while the actor is busy.
	next func(fn func())
	// listen opens a notify port on the env's own machine that accepts
	// every connection; refused names one where nothing listens.
	listen  func() uint16
	refused func() uint16
	ran     map[string]int // timers run, by name (actor-owned)
}

// loneSimHost starts a signaling entity on a one-router world.
func loneSimHost(t *testing.T) (*sim.Engine, *SimHost) {
	t.Helper()
	e := sim.New(1)
	fab := xswitch.NewFabric(e)
	sw, err := fab.AddSwitch("sw")
	if err != nil {
		t.Fatal(err)
	}
	ip := memnet.New(e).MustAddNode("mh.rt", memnet.IP4(10, 0, 0, 1))
	stack, err := core.NewRouter(e, sim.DefaultCostModel(), core.RouterConfig{
		Name: "mh.rt", Addr: "mh.rt", IP: ip, Fabric: fab, Switch: sw,
		DeviceBuffers: kern.FixedDeviceBuffers, FDTableSize: kern.FixedFDTableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := StartSim(stack, fab)
	e.RunFor(time.Millisecond)
	return e, h
}

func simEnvRig(t *testing.T) *envRig {
	e, h := loneSimHost(t)
	t.Cleanup(e.Shutdown)
	settle := func() { e.RunFor(20 * time.Millisecond) }
	return &envRig{
		sh: h.SH, env: h.env, ip: h.Stack.M.IP.Addr, timers: &h.env.timers,
		do: func(fn func()) {
			h.put(input{fn: fn})
			settle()
		},
		settle: settle,
		busy:   h.env.Charge,
		next:   func(fn func()) { h.put(input{fn: fn}) },
		listen: func() uint16 {
			const port = 6100
			l, err := h.Stack.M.IP.ListenStream(port)
			if err != nil {
				t.Fatal(err)
			}
			e.Go("notify-app", func(p *sim.Proc) {
				for _, ok := l.Accept(p); ok; _, ok = l.Accept(p) {
				}
			})
			return port
		},
		refused: func() uint16 { return 6199 },
		ran:     map[string]int{},
	}
}

func realEnvRig(t *testing.T) *envRig {
	h, err := StartReal("mh.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(h.Close)
	h.DialAttempts = 1
	env := h.SH.env.(*realEnv)
	return &envRig{
		sh: h.SH, env: env, ip: memnet.IP4(127, 0, 0, 1), timers: &env.timers,
		do: h.Do,
		settle: func() {
			time.Sleep(20 * time.Millisecond)
			h.Do(func() {})
		},
		busy: time.Sleep,
		next: func(fn func()) { h.own.Push(input{fn: fn}) },
		listen: func() uint16 {
			port, _ := notifyApp(t)
			return port
		},
		refused: func() uint16 {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			return uint16(l.Addr().(*net.TCPAddr).Port)
		},
		ran: map[string]int{},
	}
}

// arm, in actor context, arms a 1 ms timer that counts its runs.
func (r *envRig) arm(name string) CancelFunc {
	return r.env.After(time.Millisecond, "test", func() { r.ran[name]++ })
}

// free counts the records on the timer free list: every record the
// list made and does not have out. A record put back twice counts twice
// here, and panics under the race detector.
func (r *envRig) free(t *testing.T) (n int) {
	t.Helper()
	r.do(func() {
		_, made := r.timers.free.Draws()
		n = int(made) - r.timers.free.Outstanding()
	})
	return n
}

// until settles the actor until cond, read in actor context, holds.
func (r *envRig) until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		var ok bool
		r.do(func() { ok = cond() })
		if ok {
			return
		}
		r.settle()
	}
	t.Fatalf("never saw %s", what)
}

// goid is the calling goroutine's id: a sim proc is a coroutine bound to
// one goroutine for its life, and RealHost's actor is one goroutine.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseUint(f[1], 10, 64)
	return id
}

// dialOnce dials port from the actor and reports what the callback got,
// how often it ran, and whether it ran on the actor.
func (r *envRig) dialOnce(t *testing.T, port uint16) (conn Conn, err error) {
	t.Helper()
	var actor uint64
	calls, onActor := 0, true
	r.do(func() {
		actor = goid()
		r.env.Dial(r.ip, port, func(c Conn, e error) {
			calls++
			conn, err = c, e
			onActor = onActor && goid() == actor
		})
	})
	r.until(t, "the dial callback", func() bool { return calls > 0 })
	r.settle()
	if calls != 1 || !onActor {
		t.Fatalf("the dial callback ran %d times, on the actor: %v; want once, on the actor", calls, onActor)
	}
	return conn, err
}

func TestEnvContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, r *envRig)
	}{
		{"timer fired and run", func(t *testing.T, r *envRig) {
			r.do(func() { r.arm("a") })
			r.settle()
			if r.ran["a"] != 1 || r.free(t) != 1 {
				t.Fatalf("ran %d times, %d records free; want 1 and 1", r.ran["a"], r.free(t))
			}
		}},
		{"timer canceled before firing", func(t *testing.T, r *envRig) {
			r.do(func() {
				c := r.arm("a")
				c()
				c()
			})
			r.settle()
			if r.ran["a"] != 0 || r.free(t) != 1 {
				t.Fatalf("ran %d times, %d records free; want 0 and 1", r.ran["a"], r.free(t))
			}
		}},
		{"timer canceled between firing and dispatch", func(t *testing.T, r *envRig) {
			r.do(func() {
				c := r.arm("a")
				r.busy(20 * time.Millisecond) // it fires, and queues behind the next input
				r.next(c)
			})
			r.settle()
			if r.ran["a"] != 0 || r.free(t) != 1 {
				t.Fatalf("ran %d times, %d records free; want 0 and 1", r.ran["a"], r.free(t))
			}
		}},
		{"stale cancel on a recycled record is inert", func(t *testing.T, r *envRig) {
			var fired, canceled, late CancelFunc
			r.do(func() { fired = r.arm("fired") })
			r.settle()
			r.do(func() {
				r.arm("next") // on fired's record
				fired()
				canceled = r.arm("canceled")
				canceled()
				r.arm("after-cancel") // on canceled's record
				canceled()
				late = r.arm("late")
				r.busy(20 * time.Millisecond)
				r.next(late)
			})
			r.settle()
			r.do(func() {
				r.arm("after-late") // on late's record
				late()
			})
			r.settle()
			for name, want := range map[string]int{"fired": 1, "next": 1, "canceled": 0, "after-cancel": 1, "late": 0, "after-late": 1} {
				if r.ran[name] != want {
					t.Errorf("%s ran %d times, want %d", name, r.ran[name], want)
				}
			}
		}},
		{"each record on the free list once", func(t *testing.T, r *envRig) {
			r.do(func() {
				r.arm("a")
				b := r.arm("b")
				b()
				c := r.arm("c")               // on b's record
				r.busy(20 * time.Millisecond) // a and c fire, and queue behind the next input
				r.next(func() {
					c()
					r.arm("d") // a's and c's records are out till their firings are dispatched
				})
			})
			r.settle()
			if n := r.free(t); n != 3 || r.ran["a"] != 1 || r.ran["d"] != 1 || r.ran["b"]+r.ran["c"] != 0 {
				t.Fatalf("%d records free (want 3), ran %v (want a and d once)", n, r.ran)
			}
		}},
		{"bind behind its queued bind timer spares the next call", func(t *testing.T, r *envRig) {
			// Two calls reach the destination's callWaitServer from a peer
			// x.rt. The first is granted with a 5 ms bind timer, which
			// fires while the actor is busy; the bind, the next input,
			// lands before the firing is dispatched, and the second call's
			// grant takes the first's wait_for_bind entry from the pool.
			const peer = atm.Addr("x.rt")
			sh, ip, app := r.sh, r.ip, &fakeConn{}
			port := r.listen()
			call := func(id uint32) *call { return sh.calls.get(callKey{peer: peer, id: id}) }
			grant := func(id uint32, vci atm.VCI) {
				sh.appMsg(app, ip, sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: call(id).cookie})
				sh.peerMsg(peer, sigmsg.Msg{Kind: sigmsg.KindConnectDone, CallID: id, VCI: vci})
			}
			r.do(func() {
				sh.appMsg(app, ip, sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: "echo", NotifyPort: port})
			})
			for id := uint32(1); id <= 2; id++ {
				r.do(func() { sh.peerMsg(peer, sigmsg.Msg{Kind: sigmsg.KindSetup, CallID: id, Service: "echo"}) })
				r.until(t, "the server's notify connection", func() bool { return call(id) != nil && call(id).serverConn != nil })
			}
			r.do(func() {
				sh.cm.BindTimeout = 5 * time.Millisecond
				grant(1, 40)
				sh.cm.BindTimeout = time.Minute
				r.busy(20 * time.Millisecond)
				r.next(func() {
					sh.HandleKernel(ip, kern.KMsg{Kind: kern.MsgBind, VCI: 40, Cookie: sh.waitBind.at(40).cookie})
					grant(2, 41)
				})
			})
			r.settle()
			var waiting, bound int
			r.do(func() { _, _, _, waiting, bound = sh.ListSizes() })
			if waiting != 1 || bound != 1 || sh.Obs.Snapshot().Count("sighost.bind_timeouts") != 0 {
				t.Fatalf("wait_for_bind %d, VCI_mapping %d, bind timeouts %d; want 1, 1, 0",
					waiting, bound, sh.Obs.Snapshot().Count("sighost.bind_timeouts"))
			}
		}},
		{"dial a listening port", func(t *testing.T, r *envRig) {
			conn, err := r.dialOnce(t, r.listen())
			if conn == nil || err != nil {
				t.Fatalf("callback got %v, %v; want a connection", conn, err)
			}
			r.do(conn.Close)
		}},
		{"dial a refused port", func(t *testing.T, r *envRig) {
			if conn, err := r.dialOnce(t, r.refused()); conn != nil || err == nil {
				t.Fatalf("callback got %v, %v; want an error", conn, err)
			}
		}},
		{"loopback SendPeer is handled once, after its sender", func(t *testing.T, r *envRig) {
			peerMsgs := r.sh.ct.peerMsgs
			before := peerMsgs.Value()
			r.do(func() {
				if err := r.sh.sendFrame(r.env.Addr(), sigmsg.Msg{Kind: sigmsg.KindRelease, CallID: 99}); err != nil {
					t.Error(err)
				}
				if peerMsgs.Value() != before {
					t.Error("handled inside SendPeer")
				}
			})
			r.settle()
			if n := peerMsgs.Value() - before; n != 1 {
				t.Fatalf("dispatch ran the message %d times, want once", n)
			}
		}},
		{"KernelDisconnect", func(t *testing.T, r *envRig) {
			r.do(func() {
				r.env.KernelDisconnect(r.ip, 40)
				r.env.KernelDisconnect(0, 41)
				r.env.KernelDisconnect(memnet.IP4(10, 9, 9, 9), 42)
			})
		}},
	}
	for _, env := range []struct {
		name string
		rig  func(*testing.T) *envRig
	}{{"sim", simEnvRig}, {"real", realEnvRig}} {
		for _, row := range rows {
			t.Run(env.name+"/"+row.name, func(t *testing.T) { row.run(t, env.rig(t)) })
		}
	}
}

// TestActorNeverWaitsOnItself: a local call's loopback peer message is
// made by the actor, so it must not wait for room in the actor's own
// inbox. Here the inbox is full, with one more input waiting to get in,
// when the actor makes one.
func TestActorNeverWaitsOnItself(t *testing.T) {
	h, err := StartReal("mh.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer h.Close()
	held, release := make(chan struct{}), make(chan struct{})
	go h.Do(func() {
		close(held)
		<-release
	})
	<-held
	peerMsgs := h.SH.ct.peerMsgs
	before := peerMsgs.Value()
	go func() {
		h.put(input{fn: func() {
			_ = h.SH.sendFrame(h.Addr, sigmsg.Msg{Kind: sigmsg.KindRelease, CallID: 99})
		}})
		for i := 0; i < cap(h.inbox); i++ {
			h.put(input{fn: func() {}})
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); len(h.inbox) < cap(h.inbox); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the inbox never filled")
		}
	}
	time.Sleep(20 * time.Millisecond) // the last no-op waits to get in
	close(release)
	done := make(chan struct{})
	go func() {
		h.Do(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the actor is stuck sending to its own inbox")
	}
	if n := peerMsgs.Value() - before; n != 1 {
		t.Fatalf("dispatch ran the loopback message %d times, want once", n)
	}
}
