package testbed_test

import (
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/testbed"
	"xunet/internal/xswitch"
)

// drain runs the engine long enough for a storm plus teardown and bind
// timers to settle.
func drain(n *testbed.Net) {
	n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
}

// TestE4_CallStormRouterToRouter is the §10 robustness workload: a
// hundred calls initiated as fast as possible, held one second, torn
// down — with the fixed configuration (80 buffers, fd table 100). The
// root TestPaperClaims holds its count (E4); this test holds that
// everything drains.
func TestE4_CallStormRouterToRouter(t *testing.T) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second) // let the server register
	testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 100, Hold: time.Second, FramesPerCall: 1,
	})
	drain(n)
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestE4_CallStormHostToRouter runs the same workload from an
// IP-connected host ("this workload has been run successfully between
// routers as well as between a host and a router"), its frames padded
// to 1400 bytes so that they travel in clusters, which the audit counts
// like small mbufs.
func TestE4_CallStormHostToRouter(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	host, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	testbed.CallStorm(host, "ucb.rt", "storm", testbed.StormConfig{
		Count: 50, Hold: time.Second, FramesPerCall: 1, FrameBytes: 1400,
	})
	drain(n)
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestE4_KillDuringStorm terminates every third client mid-call; all
// state must still drain ("The network and signaling state were always
// correctly restored").
func TestE4_KillDuringStorm(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 60, Hold: 2 * time.Second, FramesPerCall: 1,
		KillEvery: 3, KillAfter: 700 * time.Millisecond,
	})
	drain(n)
	if res.Killed == 0 {
		t.Fatal("nothing was killed")
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestE5_EightBuffersLoseBindIndications reproduces the first scaling
// problem of §10: with only eight pseudo-device buffers, a burst of
// simultaneous connections loses bind indications.
func TestE5_EightBuffersLoseBindIndications(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: 8, // the original, broken configuration
		FDTableSize:   kern.FixedFDTableSize,
	})
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 100, Hold: time.Second,
	})
	drain(n)
	lost := ra.Stack.M.Dev.Lost + rb.Stack.M.Dev.Lost
	if lost == 0 {
		t.Fatal("no pseudo-device message loss with 8 buffers under a 100-call burst")
	}
	t.Logf("8 buffers: %d messages lost, %d/%d calls OK",
		lost, res.Succeeded, res.Launched)
	n.E.Shutdown()
}

// TestE5_EightyBuffersSuffice is the paper's fix: "Our current
// implementation has eighty buffers, which has proved to be adequate."
func TestE5_EightyBuffersSuffice(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: 80,
		FDTableSize:   kern.FixedFDTableSize,
	})
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 100, Hold: time.Second,
	})
	drain(n)
	if lost := ra.Stack.M.Dev.Lost + rb.Stack.M.Dev.Lost; lost != 0 {
		t.Fatalf("%d messages lost with 80 buffers", lost)
	}
	if res.Succeeded != 100 {
		t.Fatalf("succeeded %d of 100", res.Succeeded)
	}
	n.E.Shutdown()
}

// TestE5_SmallFDTableStallsEstablishment reproduces the second scaling
// problem: TIME_WAIT keeps per-call descriptors busy for 2·MSL, so a
// 20-entry table clamps how many clients can establish simultaneously.
func TestE5_SmallFDTableStallsEstablishment(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.DefaultFDTableSize, // 20
	})
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 60, Hold: time.Second,
	})
	drain(n)
	drain(n)
	// With ~19 usable slots per 2·MSL window, establishment stretches
	// far beyond the unconstrained case; stragglers hit the library
	// timeout.
	if res.MaxSetup < 10*time.Second && res.Failed == 0 {
		t.Fatalf("no stall observed: max setup %v, failed %d", res.MaxSetup, res.Failed)
	}
	t.Logf("fd=20: %d/%d ok, setup min %v avg %v max %v",
		res.Succeeded, res.Launched, res.MinSetup, res.Avg(), res.MaxSetup)
	n.E.Shutdown()
}

// TestE5_LargeFDTableFixesStall: "we increased the kernel's per-process
// file descriptor table size to 100."
func TestE5_LargeFDTableFixesStall(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize, // 100
	})
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 60, Hold: time.Second,
	})
	drain(n)
	if res.Failed != 0 {
		t.Fatalf("failed %d with fd table 100", res.Failed)
	}
	// Establishment is still serialized by per-call logging in the
	// signaling entities (~310 ms/call for 60 calls ≈ 19 s for the
	// last), but nothing stalls on descriptor scarcity: no call waits a
	// TIME_WAIT window (30 s), unlike the fd=20 run.
	if res.MaxSetup > 25*time.Second {
		t.Fatalf("establishment still stalled: max %v", res.MaxSetup)
	}
	t.Logf("fd=100: %d/%d ok, setup avg %v max %v",
		res.Succeeded, res.Launched, res.Avg(), res.MaxSetup)
	n.E.Shutdown()
}

// TestE5_TwoHundredOpenConnections: "With this change... we were able
// to establish and keep open two hundred connections between two
// routers." The root TestPaperClaims counts the circuits open at once
// (E5); this test holds that all two hundred drain.
func TestE5_TwoHundredOpenConnections(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	// Two servers so no single process accepts all 200 establishments
	// inside one TIME_WAIT window.
	testbed.StartEchoServer(rb, "svc-a", 6000)
	testbed.StartEchoServer(rb, "svc-b", 6001)
	n.E.RunUntil(time.Second)
	hold := 5 * time.Minute
	// Launches are paced just above the signaling entities' per-call
	// service time so requests do not pile up in the daemon (an
	// unpaced 200-call burst synchronizes all completions — and hence
	// all closes — into one wave that overflows even the 80-buffer
	// pseudo-device; see TestE5_EightBuffersLoseBindIndications for
	// the overload case).
	testbed.CallStorm(ra, "ucb.rt", "svc-a", testbed.StormConfig{
		Count: 100, Hold: hold, BasePort: 20000, Stagger: time.Second,
	})
	testbed.CallStorm(ra, "ucb.rt", "svc-b", testbed.StormConfig{
		Count: 100, Hold: hold, BasePort: 21000, Stagger: time.Second,
	})
	// Launches spread over 100 s; let every hold expire and drain.
	n.E.RunUntil(4*time.Minute + hold + 4*n.CM.BindTimeout)
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestXunetFiveSiteCalls exercises the nationwide topology: a call from
// every site to every other site.
func TestXunetFiveSiteCalls(t *testing.T) {
	n, routers, err := testbed.NewXunet(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, r := range routers {
		testbed.StartEchoServer(r, "echo-"+string(site), 6000)
	}
	n.E.RunUntil(time.Second)
	type pair struct{ from, to xswitch.XunetSite }
	var results []*testbed.StormResult
	var pairs []pair
	port := uint16(30000)
	for _, a := range xswitch.XunetSites() {
		for _, b := range xswitch.XunetSites() {
			if a == b {
				continue
			}
			res := testbed.CallStorm(routers[a], routers[b].Stack.Addr, "echo-"+string(b), testbed.StormConfig{
				Count: 1, Hold: time.Second, FramesPerCall: 2, BasePort: port,
			})
			port += 10
			results = append(results, res)
			pairs = append(pairs, pair{a, b})
		}
	}
	drain(n)
	for i, res := range results {
		if res.Succeeded != 1 {
			t.Errorf("%s -> %s failed: %+v", pairs[i].from, pairs[i].to, res.Results[0].Err)
		}
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

// TestVCIReuseAfterClose: a host client sends 100 frames, closes, and is
// granted the same VCI for its next call, on which it sends 100 more.
// Every frame must arrive: the router's VCI_SHUT ended the first grant
// only, and the second starts with no state of it.
func TestVCIReuseAfterClose(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	defer n.Close()
	src, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AddHost("ucb.h1", rb)
	if err != nil {
		t.Fatal(err)
	}
	srv := testbed.StartEchoServer(dst, "reuse", 6000)
	n.RunUntil(500 * time.Millisecond)
	const frames = 100
	var vcis []atm.VCI
	src.Stack.Spawn("reuse-client", func(p *kern.Proc) {
		for call := 0; call < 2; call++ {
			conn, err := src.Lib.OpenConnection(p, "ucb.rt", "reuse", uint16(7000+call), "", "")
			if err != nil {
				t.Error(err)
				return
			}
			vcis = append(vcis, conn.VCI)
			sock, err := src.Stack.PF.Socket(p)
			if err == nil {
				err = sock.Connect(conn.VCI, conn.Cookie)
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.SP.Sleep(500 * time.Millisecond) // the server binds
			for i := 0; i < frames; i++ {
				_ = sock.Send(make([]byte, 64))
				p.SP.Sleep(time.Millisecond)
			}
			p.SP.Sleep(500 * time.Millisecond)
			sock.Close()
			p.SP.Sleep(2 * time.Second)
		}
	})
	n.RunUntil(n.E.Now() + 30*time.Second)
	if len(vcis) != 2 || vcis[0] != vcis[1] {
		t.Fatalf("calls got VCIs %v, want one VCI granted twice", vcis)
	}
	if srv.Received != 2*frames {
		t.Fatalf("server received %d of %d frames; refused at mh.rt: %d", srv.Received, 2*frames,
			ra.Stack.M.Obs.Snapshot().Count("protoatm.refused"))
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
}
