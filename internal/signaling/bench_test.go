package signaling_test

import (
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/mbuf"
	"xunet/internal/pfxunet"
	"xunet/internal/qos"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// Wall-clock benchmarks: how many simulated signaling operations the
// reproduction executes per second of real time.

// notifyPort is the first client notify port of storm i; call k of the
// storm listens on notifyPort(i)+k. The window lies below 10000, where
// memnet's ephemeral allocator starts its sweep, but need not: every
// stream of a call closes with it, so no dial keeps a port a later
// storm listens on (TestNotifyPortsInEphemeralRange).
func notifyPort(i int) uint16 { return uint16(2000 + (i%200)*32) }

// BenchmarkSimulatedCallsPerSecond runs ten-call storms on a warm
// two-router testbed, untraced first, as the benchmark's sim_storm_flat
// runs it, then with the causal tracer on, the testbed's default.
func BenchmarkSimulatedCallsPerSecond(b *testing.B) {
	b.Run("untraced", func(b *testing.B) { benchStorms(b, true) })
	b.Run("traced", func(b *testing.B) { benchStorms(b, false) })
}

func benchStorms(b *testing.B, untraced bool) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{
		DeviceBuffers:      kern.FixedDeviceBuffers,
		FDTableSize:        kern.FixedFDTableSize,
		DisableCallLogging: true, // measure the machinery, not the modeled logging stall
		DisableTracing:     untraced,
	})
	if err != nil {
		b.Fatal(err)
	}
	testbed.StartEchoServer(rb, "bench", 6000)
	n.E.RunUntil(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		res := testbed.CallStorm(ra, "ucb.rt", "bench", testbed.StormConfig{
			Count: 10, Hold: 50 * time.Millisecond, BasePort: notifyPort(i),
		})
		n.E.RunUntil(n.E.Now() + 30*time.Second)
		done += res.Succeeded
		if res.Succeeded != 10 {
			b.Fatalf("iteration %d: %d/10 calls", i, res.Succeeded)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "sim-calls/s")
	// Companion quality metrics straight from the telemetry registry: the
	// throughput number above is only meaningful alongside the simulated
	// setup latency it was achieved at.
	snap := ra.Sig.SH.Obs.Snapshot()
	if st := snap.Hist("sighost.setup.total"); st != nil && st.Count > 0 {
		b.ReportMetric(float64(st.P99)/float64(time.Millisecond), "sim-p99-setup-ms")
		b.ReportMetric(float64(st.P50)/float64(time.Millisecond), "sim-p50-setup-ms")
	}
	n.E.Shutdown()
}

// stormRig is the warm rig TestCallStormAllocs and TestCallStormEvents
// measure, the benchmark above's, and a function that runs its next
// ten-call storm, from notify port base(i) for storm i, to quiescence.
func stormRig(t *testing.T, base func(i int) uint16) (*testbed.Net, func()) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{
		DeviceBuffers:      kern.FixedDeviceBuffers,
		FDTableSize:        kern.FixedFDTableSize,
		DisableCallLogging: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	testbed.StartEchoServer(rb, "bench", 6000)
	n.E.RunUntil(time.Second)
	i := 0
	return n, func() {
		res := testbed.CallStorm(ra, "ucb.rt", "bench", testbed.StormConfig{
			Count: 10, Hold: 50 * time.Millisecond, BasePort: base(i),
		})
		i++
		n.E.RunUntil(n.E.Now() + 30*time.Second)
		if res.Succeeded != 10 {
			t.Fatalf("storm %d: %d/10 calls", i, res.Succeeded)
		}
	}
}

// TestCallStormAllocs gates the allocations of a whole call, application
// side included, where TestSteadyStateCallAllocs pins only the pooled
// sighost state at zero: the benchmark above, traced, ten iterations of
// it. Since the control path's tables stopped being maps and the path of
// a setup is found once per endpoint pair it reads 516 per 10-call storm
// in most processes and 517 in a few (5 of 120 on one build, 0 of 120
// on another; 565–567 before, 566 most often; 626 before sighost's
// helper processes became delivery hooks; 688 before a loopback DATA
// segment handed the receiver the sender's copy, 768 before chain
// headers were recycled, 969 before the signaling PVC's frames stopped
// allocating in the Hobbit board's SAR, 4013 before segments, waiters,
// timers and inbox entries got recycled records; DESIGN.md, "Allocation
// ledger of a call", says where the rest go). What varies is two maps whose tables rebuild at points their
// random hash seeds set: sighost's outgoing_requests and
// incoming_requests, keyed by the random 16-bit cookies. They make 0 to
// 4 allocations per ten storms (a 517 process's profile differs from a
// 516 one's by 4 in transition, where they are written), and the ten
// storms' total sits close enough to a multiple of ten that those tip
// the mean; so the ceiling is 517.
func TestCallStormAllocs(t *testing.T) {
	if signaling.RaceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	const ceiling = 517
	_, storm := stormRig(t, notifyPort)
	got := testing.AllocsPerRun(10, storm)
	if got > ceiling {
		t.Errorf("a 10-call storm allocates %.0f times, ceiling %d", got, ceiling)
	}
	t.Logf("%.0f allocs per 10-call storm", got)
}

// TestCallStormEvents pins the engine events, process dispatches and
// kernel process spawns of a warm ten-call storm on the same rig. The
// counts are virtual history, not wall-clock figures, so they are exact:
// a change that moves one is reviewed as a moved TestDetGate row is.
// Events: 682 since the sim actor runs each input to completion in an
// engine event and its charges advance a clock. The storm's 130 inputs
// take 101 drains of an idle actor, 19 drains at the clock of an input
// that arrived while the actor was busy, and 60 outbox flushes, one per
// distinct instant at which an output was made past the engine's clock:
// 180 events where the actor's process took 171, 101 wake-ups and 70
// resumes from a charge's sleep, the resumed process picking a queued
// input up in the same dispatch. 673 before that, since sighost became
// one process whose input sources hand each arrival to its inbox in the
// delivering event (914 before, when a listener, a pump per connection,
// a dialer per dial and a device reader woke between the wire and the
// actor; 894 before sighost closed its side of the one connection per
// call it left open, a FIN and the ACK that completes the close; 1 014
// before loopback stream ACKs that nothing waits on stopped being
// events; DESIGN.md §9, "One select loop", and §17, "Loopback
// streams"). Dispatches: 152, the applications' (323 with the actor's
// process, 564 with the helpers, which took 231 of them and 30 of the
// storm's 50 engine spawns). Kernel spawns: 20, the callers and the echo
// server's workers; the helpers were engine processes, so this count
// never held them.
func TestCallStormEvents(t *testing.T) {
	const events, dispatches, spawns = 682, 152, 20
	n, storm := stormRig(t, notifyPort)
	storm() // the first storm also dials the peer sighost
	spawned := func() (k uint64) {
		for _, r := range n.Routers {
			k += r.Stack.M.Obs.Counter("kern.procs.spawned").Value()
		}
		return k
	}
	for k := 0; k < 3; k++ {
		ev, d, sp := n.E.EventsExecuted(), n.E.ProcDispatches(), spawned()
		storm()
		ev, d, sp = n.E.EventsExecuted()-ev, n.E.ProcDispatches()-d, spawned()-sp
		if ev != events || d != dispatches || sp != spawns {
			t.Fatalf("warm storm %d ran %d engine events, %d process dispatches and %d kernel spawns, want %d, %d and %d",
				k, ev, d, sp, events, dispatches, spawns)
		}
	}
}

// TestOneSighostProcess reads kern.procs.live on the Xunet topology with
// no applications: each router has spawned one process, its sighost,
// which holds the router's end of every signaling PVC (two descriptors
// per peer) and is still the only process there once the mesh is up.
func TestOneSighostProcess(t *testing.T) {
	n, _, err := testbed.NewXunet(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.E.RunUntil(time.Second)
	for _, r := range n.Routers {
		reg := r.Stack.M.Obs
		if live, spawned := reg.Gauge("kern.procs.live").Value(), reg.Counter("kern.procs.spawned").Value(); live != 1 || spawned != 1 {
			t.Errorf("%s: %d processes live, %d spawned; want its sighost alone", r.Stack.Addr, live, spawned)
		}
	}
}

// TestNotifyPortsInEphemeralRange cycles 300 ten-call storms through 200
// notify-port windows inside memnet's ephemeral range: a stream that
// outlived its call would hold its port, and storm 201 would fail.
func TestNotifyPortsInEphemeralRange(t *testing.T) {
	n, storm := stormRig(t, func(i int) uint16 { return uint16(12000 + (i%200)*32) })
	for range 300 {
		storm()
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
}

// TestFramePathAllocs gates the PVC frame path a call's signaling rides:
// a 1400-byte frame handed to one router's Orc driver, cut into cells by
// its Hobbit board, carried over the three-hop fabric and reassembled by
// the far board allocates nothing in steady state (2 before chain
// headers were recycled, 12 before the boards kept their SAR buffers).
func TestFramePathAllocs(t *testing.T) {
	if signaling.RaceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	const ceiling = 1
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{DisableCallLogging: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.E.RunUntil(time.Second)
	vc, err := n.Fabric.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i)
	}
	frames := 0
	rb.Stack.M.Orc.SetHandler(vc.DstVCI, func(_ atm.VCI, frame *mbuf.Chain) {
		if frame.Len() != len(payload) {
			t.Errorf("frame of %d bytes arrived, sent %d", frame.Len(), len(payload))
		}
		frames++
		frame.Release()
	})
	got := testing.AllocsPerRun(50, func() {
		if err := ra.Stack.M.Orc.Output(vc.SrcVCI, ra.Stack.M.Pool.FromBytes(payload)); err != nil {
			t.Fatal(err)
		}
		n.E.RunUntil(n.E.Now() + 10*time.Millisecond)
	})
	if frames != 51 {
		t.Fatalf("%d of 51 frames delivered", frames)
	}
	if got > ceiling {
		t.Errorf("a frame across the fabric allocates %.0f times, ceiling %d", got, ceiling)
	}
	t.Logf("%.0f allocs per frame", got)
}

// TestIPFramePathAllocs gates the IPPROTO_ATM frame path sim_data_small
// measures: a 40-byte frame from a PF_XUNET socket on mh.h1, encapsulated
// to mh.rt, switched into the fabric, re-encapsulated at ucb.rt and
// delivered to a socket on ucb.h1. Chain headers, packet records and the
// encapsulation header all come from free lists or the stack, and Recv
// flattens into the socket's own buffer, so neither a reader taking the
// chain nor one calling Recv allocates (a copy per Recv was the last).
func TestIPFramePathAllocs(t *testing.T) {
	if signaling.RaceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	for _, flatten := range []bool{false, true} {
		n, ra, rb, err := testbed.NewTestbed(testbed.Options{DisableCallLogging: true})
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
		frames := 0
		hostB.Stack.Spawn("sink", func(p *kern.Proc) {
			sock, _ := hostB.Stack.PF.Socket(p)
			if err := sock.Bind(vc.DstVCI, 0); err != nil {
				t.Error(err)
				return
			}
			for {
				if flatten {
					if _, err := sock.Recv(); err != nil {
						return
					}
				} else {
					chain, err := sock.RecvChain()
					if err != nil {
						return
					}
					chain.Release()
				}
				frames++
			}
		})
		var tx *pfxunet.Socket
		hostA.Stack.Spawn("source", func(p *kern.Proc) {
			tx, _ = hostA.Stack.PF.Socket(p)
			if err := tx.Connect(vc.SrcVCI, 0); err != nil {
				t.Error(err)
				return
			}
			p.SP.Park()
		})
		n.E.RunUntil(n.E.Now() + 100*time.Millisecond)
		payload := make([]byte, 40)
		got := testing.AllocsPerRun(50, func() {
			if err := tx.Send(payload); err != nil {
				t.Fatal(err)
			}
			n.E.RunUntil(n.E.Now() + 10*time.Millisecond)
		})
		if frames != 51 {
			t.Fatalf("flatten=%v: %d of 51 frames delivered", flatten, frames)
		}
		if got > 0 {
			t.Errorf("flatten=%v: a frame host to host allocates %.0f times, ceiling 0", flatten, got)
		}
		t.Logf("flatten=%v: %.0f allocs per frame", flatten, got)
		n.Close()
	}
}

func BenchmarkRegistrationRPC(b *testing.B) {
	n, ra, _, err := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Each RPC's IPC descriptor lingers in TIME_WAIT for 2·MSL, so one
	// process cannot issue unbounded back-to-back RPCs (it would hit
	// EMFILE, faithfully). Chunk the iterations across short-lived
	// client processes, as real applications are.
	done := 0
	for done < b.N {
		chunk := b.N - done
		if chunk > 50 {
			chunk = 50
		}
		okCh := 0
		ra.Stack.Spawn("bench", func(p *kern.Proc) {
			for i := 0; i < chunk; i++ {
				if err := ra.Lib.ExportService(p, "svc", 6000); err != nil {
					return
				}
				okCh++
			}
		})
		n.E.RunUntil(n.E.Now() + time.Duration(chunk+1)*100*time.Millisecond)
		if okCh != chunk {
			b.Fatalf("completed %d of %d in chunk", okCh, chunk)
		}
		done += chunk
	}
	b.StopTimer()
	n.E.Shutdown()
}
