package xunet_test

import (
	"fmt"
	"testing"
	"time"

	"xunet/internal/cost"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/qos"
	"xunet/internal/sim"
	"xunet/internal/testbed"
)

// The rigs TestPaperClaims measures with. Each builds its own testbed
// at the default seed and reports in virtual time, so a rig reads the
// same on every run; wall-clock speed is the benchmark's business
// (bench/).

// lab runs each rig at most once per TestPaperClaims run: the rows that
// read one run share it.
type lab struct {
	t    *testing.T
	runs map[string]any
}

// run returns the result of f, running it the first time key is asked for.
func run[T any](l *lab, key string, f func(t *testing.T) T) T {
	if v, ok := l.runs[key]; ok {
		return v.(T)
	}
	v := f(l.t)
	l.runs[key] = v
	return v
}

// ms is d in virtual milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// table1Run is one frame's instruction charges across the host-to-host
// path: at the sending host, the switching router and the receiving
// host, with the mbufs sent and the mbufs the receiving driver built.
type table1Run struct {
	send, router, recv   cost.Snapshot
	sentMbufs, recvMbufs int
}

// measureTable1 sends one frame of the given mbuf count from a host
// through its router and the testbed fabric to a host on the far
// router, reading each meter around it.
func measureTable1(t *testing.T, mbufs int) table1Run {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hostA, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := n.AddHost("ucb.h1", rb)
	if err != nil {
		t.Fatal(err)
	}
	n.E.RunUntil(200 * time.Millisecond)
	vc, err := n.Fabric.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	ra.Sig.SH.AllowPVC(vc.SrcVCI)
	rb.Sig.SH.AllowPVC(vc.DstVCI)
	payload := make([]byte, mbufs*mbuf.MLEN-16) // mbufs small buffers after the header prepend
	r := table1Run{sentMbufs: mbufs}
	hostB.Stack.Spawn("sink", func(p *kern.Proc) {
		sock, _ := hostB.Stack.PF.Socket(p)
		if err := sock.Bind(vc.DstVCI, 0); err != nil {
			return
		}
		// Let the anand client's bind-indication relay (and its
		// transport ack) clear the host's meter window before
		// measuring the data path.
		p.SP.Sleep(30 * time.Millisecond)
		before := hostB.Stack.M.Meter.Snapshot()
		chain, err := sock.RecvChain()
		if err != nil {
			return
		}
		r.recv = hostB.Stack.M.Meter.Snapshot().Sub(before)
		r.recvMbufs = chain.Count()
	})
	hostA.Stack.Spawn("source", func(p *kern.Proc) {
		sock, _ := hostA.Stack.PF.Socket(p)
		if err := sock.Connect(vc.SrcVCI, 0); err != nil {
			return
		}
		p.SP.Sleep(50 * time.Millisecond)
		chain := mbuf.FromBytesSplit(payload, mbuf.MLEN)
		beforeH := hostA.Stack.M.Meter.Snapshot()
		beforeR := ra.Stack.M.Meter.Snapshot()
		_ = sock.SendChain(chain)
		r.send = hostA.Stack.M.Meter.Snapshot().Sub(beforeH)
		p.SP.Sleep(100 * time.Millisecond)
		r.router = ra.Stack.M.Meter.Snapshot().Sub(beforeR)
		p.SP.Park()
	})
	n.E.RunUntil(n.E.Now() + time.Second)
	n.E.Shutdown()
	if r.send == nil || r.recv == nil || r.router == nil {
		t.Fatalf("Table 1 measurement with %d mbufs did not complete", mbufs)
	}
	return r
}

// table1Mbufs are the frame sizes, in mbufs, Table 1's rows are read at.
var table1Mbufs = []int{1, 2, 4, 8}

func (l *lab) table1() []table1Run {
	return run(l, "table1", func(t *testing.T) []table1Run {
		var runs []table1Run
		for _, m := range table1Mbufs {
			runs = append(runs, measureTable1(t, m))
		}
		return runs
	})
}

// register is E1: the mean time of ten service registrations.
func (l *lab) register() float64 {
	return run(l, "register", func(t *testing.T) float64 {
		n, ra, _, err := testbed.NewTestbed(testbed.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		count := 0
		ra.Stack.Spawn("server", func(p *kern.Proc) {
			for j := 0; j < 10; j++ {
				start := p.SP.Now()
				if err := ra.Lib.ExportService(p, fmt.Sprintf("svc-%d", j), uint16(6000+j)); err != nil {
					t.Error(err)
					return
				}
				total += p.SP.Now() - start
				count++
			}
		})
		n.E.RunUntil(10 * time.Second)
		n.E.Shutdown()
		if count == 0 {
			t.Fatal("no registration measured")
		}
		return ms(total) / float64(count)
	})
}

// inKernelRPC is X1's other side: the registration exchange with the
// two user-library switches elided, as an in-kernel signaling entity
// would run it (the kernel hands the message to the entity directly).
func (l *lab) inKernelRPC() float64 {
	return run(l, "in-kernel", func(t *testing.T) float64 {
		n, ra, _, err := testbed.NewTestbed(testbed.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var rpc time.Duration
		ra.Stack.Spawn("app", func(p *kern.Proc) {
			start := p.SP.Now()
			p.ContextSwitches(2)
			p.SP.Sleep(time.Millisecond) // protocol work
			rpc = p.SP.Now() - start
		})
		n.E.RunUntil(10 * time.Second)
		n.E.Shutdown()
		return ms(rpc)
	})
}

// accept is E2: the mean time a server takes to accept each of five
// incoming calls.
func (l *lab) accept() float64 {
	return run(l, "accept", func(t *testing.T) float64 {
		n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		count := 0
		rb.Stack.Spawn("server", func(p *kern.Proc) {
			if err := rb.Lib.ExportService(p, "echo", 6000); err != nil {
				return
			}
			kl, _ := rb.Lib.CreateReceiveConnection(p, 6000)
			for {
				req, err := rb.Lib.AwaitServiceRequest(p, kl)
				if err != nil {
					return
				}
				start := p.SP.Now()
				if _, _, err := req.Accept(req.QoS); err != nil {
					return
				}
				total += p.SP.Now() - start
				count++
			}
		})
		ra.Stack.Spawn("clients", func(p *kern.Proc) {
			p.SP.Sleep(100 * time.Millisecond)
			for j := 0; j < 5; j++ {
				if _, err := ra.Lib.OpenConnection(p, "ucb.rt", "echo", uint16(7000+j), "", ""); err != nil {
					return
				}
			}
		})
		n.E.RunUntil(time.Minute)
		n.E.Shutdown()
		if count == 0 {
			t.Fatal("no accepts measured")
		}
		return ms(total) / float64(count)
	})
}

// setup is E3: the mean setup time of five staggered router-to-router
// calls, with the per-call maintenance logging on or off.
func (l *lab) setup(logging bool) float64 {
	return run(l, fmt.Sprint("setup logging=", logging), func(t *testing.T) float64 {
		n, ra, rb, err := testbed.NewTestbed(testbed.Options{DisableCallLogging: !logging})
		if err != nil {
			t.Fatal(err)
		}
		testbed.StartEchoServer(rb, "echo", 6000)
		n.E.RunUntil(time.Second)
		res := testbed.CallStorm(ra, "ucb.rt", "echo", testbed.StormConfig{
			Count: 5, Hold: 100 * time.Millisecond, Stagger: 2 * time.Second,
		})
		n.E.RunUntil(n.E.Now() + 30*time.Second)
		n.E.Shutdown()
		if res.Succeeded == 0 {
			t.Fatal("no call established")
		}
		return ms(res.Avg())
	})
}

// stormRun is what a §10 call storm left behind.
type stormRun struct {
	res  *testbed.StormResult
	lost uint64 // pseudo-device messages lost on both routers
}

// storm runs cfg's calls from mh.rt, or from a host on it, to an
// echo server on ucb.rt, on a testbed built with opts; the audit after
// them must come back clean.
func (l *lab) storm(opts testbed.Options, cfg testbed.StormConfig, fromHost bool) stormRun {
	key := fmt.Sprintf("storm %+v %+v %v", opts, cfg, fromHost)
	return run(l, key, func(t *testing.T) stormRun {
		n, ra, rb, err := testbed.NewTestbed(opts)
		if err != nil {
			t.Fatal(err)
		}
		var from testbed.Endpoint = ra
		if fromHost {
			if from, err = n.AddHost("mh.h1", ra); err != nil {
				t.Fatal(err)
			}
		}
		testbed.StartEchoServer(rb, "storm", 6000)
		n.E.RunUntil(time.Second)
		res := testbed.CallStorm(from, "ucb.rt", "storm", cfg)
		n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
		if leaks := n.Audit(); leaks != nil {
			t.Errorf("%s: %v", key, leaks)
		}
		n.E.Shutdown()
		return stormRun{res: res, lost: ra.Stack.M.Dev.Lost + rb.Stack.M.Dev.Lost}
	})
}

// heldOpen is E5's last claim: two hundred calls to two servers,
// launched a second apart and each held five minutes; it returns the
// circuits open once every call is up and none torn down.
func (l *lab) heldOpen() int {
	return run(l, "held open", func(t *testing.T) int {
		n, ra, rb, err := testbed.NewTestbed(testbed.Options{
			DeviceBuffers: kern.FixedDeviceBuffers,
			FDTableSize:   kern.FixedFDTableSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		testbed.StartEchoServer(rb, "svc-a", 6000)
		testbed.StartEchoServer(rb, "svc-b", 6001)
		n.E.RunUntil(time.Second)
		for i, svc := range []string{"svc-a", "svc-b"} {
			testbed.CallStorm(ra, "ucb.rt", svc, testbed.StormConfig{
				Count: 100, Hold: 5 * time.Minute, BasePort: uint16(20000 + 1000*i), Stagger: time.Second,
			})
		}
		n.E.RunUntil(4 * time.Minute)
		open := n.Fabric.ActiveVCs() - 2 // minus the signaling PVCs
		n.E.Shutdown()
		return open
	})
}

// carrierRun is one frame stream from a host to its router.
type carrierRun struct {
	mbps      float64 // virtual Mb/s delivered
	delivered uint64
}

// carrier streams frames 1400-byte frames, one every 100 µs, from a
// host to its router encapsulated over c, with a fault plane on the
// host's node losing the given fraction of the packets it sends.
func (l *lab) carrier(c testbed.Carrier, loss float64, frames int) carrierRun {
	return run(l, fmt.Sprint("carrier ", c, loss, frames), func(t *testing.T) carrierRun {
		const size = 1400
		n, ra, _, err := testbed.NewTestbed(testbed.Options{})
		if err != nil {
			t.Fatal(err)
		}
		host, err := n.AddHost("mh.h1", ra)
		if err != nil {
			t.Fatal(err)
		}
		n.E.RunUntil(100 * time.Millisecond)
		switch c {
		case testbed.CarrierUDP:
			_, err = testbed.UseUDPCarrier(host)
		case testbed.CarrierTCP:
			_, err = testbed.UseTCPCarrier(host)
		}
		if err != nil {
			t.Fatal(err)
		}
		if loss > 0 {
			host.Stack.M.IP.SetFaults(faults.NewPlane(faults.Config{PktLoss: loss}))
		}
		res, err := testbed.RunCarrierTransfer(n, host, frames, size, 100*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		n.E.Shutdown()
		return carrierRun{mbps: res.ThroughputBps(size) / 1e6, delivered: res.Delivered}
	})
}

// udp is E6's baseline: the same 400-frame stream as plain UDP
// datagrams over the host's FDDI link.
func (l *lab) udp() float64 {
	return run(l, "udp", func(t *testing.T) float64 {
		const frames, size = 400, 1400
		e := sim.New(1)
		net := memnet.New(e)
		h := net.MustAddNode("h", memnet.IP4(10, 0, 0, 10))
		r := net.MustAddNode("r", memnet.IP4(10, 0, 0, 1))
		net.Connect(h, r, memnet.FDDI())
		h.SetDefaultRoute(r)
		r.AddRoute(h.Addr, h)
		var got int
		var first, last time.Duration
		_ = r.BindDatagram(9000, func(memnet.IPAddr, uint16, []byte) {
			got++
			last = e.Now()
		})
		e.Go("source", func(p *sim.Proc) {
			first = p.Now()
			payload := make([]byte, size)
			for j := 0; j < frames; j++ {
				_ = h.SendDatagram(r.Addr, 9000, 1234, payload)
				p.Sleep(100 * time.Microsecond)
			}
		})
		e.RunUntil(time.Minute)
		e.Shutdown()
		if got != frames {
			t.Fatalf("UDP baseline delivered %d of %d", got, frames)
		}
		return float64(got) * size * 8 / (last - first).Seconds() / 1e6
	})
}

// admitted is X3: 8 Mb/s CBR calls launched a second apart, each held
// five minutes; it returns the circuits the fabric admitted.
func (l *lab) admitted() int {
	return run(l, "admitted", func(t *testing.T) int {
		n, ra, rb, err := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
		if err != nil {
			t.Fatal(err)
		}
		srv := testbed.StartEchoServer(rb, "cbr", 6000)
		srv.ModifyQoS = "" // grant what is asked
		n.E.RunUntil(time.Second)
		testbed.CallStorm(ra, "ucb.rt", "cbr", testbed.StormConfig{
			Count: 10, Hold: 5 * time.Minute, QoS: "cbr:8000", Stagger: time.Second,
		})
		n.E.RunUntil(2 * time.Minute)
		admitted := n.Fabric.ActiveVCs() - 2 // minus the signaling PVCs
		n.E.Shutdown()
		return admitted
	})
}
