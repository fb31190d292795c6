package testbed_test

import (
	"fmt"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// TestSoakRandomWorkload is a randomized whole-system invariant check:
// across several seeds, a mix of clients — normal, canceling, lazy
// (never binding), crashing, and malicious (wrong cookie) — runs
// against servers that accept, reject or ignore. Whatever happens, the
// §4 robustness goals must hold once the dust settles: no leaked
// signaling state, no leaked circuits, no stuck kernel resources.
func TestSoakRandomWorkload(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			n, ra, rb, err := testbed.NewTestbed(testbed.Options{
				Seed:          seed,
				DeviceBuffers: kern.FixedDeviceBuffers,
				FDTableSize:   kern.FixedFDTableSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			host, err := n.AddHost("mh.h1", ra)
			if err != nil {
				t.Fatal(err)
			}

			// Servers: a normal echo, a rejector, and a sleeper that
			// never answers.
			testbed.StartEchoServer(rb, "echo", 6000)
			rb.Stack.Spawn("rejector", func(p *kern.Proc) {
				_ = rb.Lib.ExportService(p, "nope", 6001)
				kl, _ := rb.Lib.CreateReceiveConnection(p, 6001)
				for {
					req, err := rb.Lib.AwaitServiceRequest(p, kl)
					if err != nil {
						return
					}
					_ = req.Reject("policy")
				}
			})
			rb.Stack.Spawn("sleeper", func(p *kern.Proc) {
				_ = rb.Lib.ExportService(p, "zzz", 6002)
				_, _ = rb.Lib.CreateReceiveConnection(p, 6002)
				p.SP.Park()
			})
			n.E.RunUntil(time.Second)

			rng := n.E.Rand()
			services := []string{"echo", "nope", "zzz", "ghost"}
			port := uint16(20000)
			for i := 0; i < 40; i++ {
				behaviour := rng.Intn(5)
				svc := services[rng.Intn(len(services))]
				qosStr := []string{"", "vbr:128", "cbr:1000"}[rng.Intn(3)]
				launch := time.Duration(rng.Intn(5000)) * time.Millisecond
				port++
				p := port
				var client testbed.Endpoint = ra
				if rng.Intn(3) == 0 {
					client = host
				}
				stack, lib := client.EndStack(), client.EndLib()
				proc := stack.Spawn("soak-client", func(kp *kern.Proc) {
					kp.SP.Sleep(launch)
					switch behaviour {
					case 0: // normal call with data
						res := testbed.OpenAndUseFrames(client, kp, "ucb.rt", svc, p, qosStr, 2, 0, nil)
						_ = res
					case 1: // open then cancel asynchronously
						pc, err := lib.OpenConnectionAsync(kp, "ucb.rt", svc, p, "", qosStr)
						if err != nil {
							return
						}
						kp.SP.Sleep(time.Duration(rng.Intn(500)) * time.Millisecond)
						_ = pc.Cancel()
					case 2: // lazy: open, never bind, rely on the timer
						_, _ = lib.OpenConnection(kp, "ucb.rt", svc, p, "", qosStr)
					case 3: // normal call, long hold (killed below, maybe)
						testbed.OpenAndUseFrames(client, kp, "ucb.rt", svc, p, qosStr, 1, 0,
							func(kp *kern.Proc) { kp.SP.Sleep(20 * time.Second) })
					case 4: // malicious: connect with a perturbed cookie
						conn, err := lib.OpenConnection(kp, "ucb.rt", svc, p, "", qosStr)
						if err != nil {
							return
						}
						sock, _ := stack.PF.Socket(kp)
						_ = sock.Connect(conn.VCI, conn.Cookie+1)
						kp.SP.Sleep(time.Second)
					}
				})
				if behaviour == 3 && rng.Intn(2) == 0 {
					victim := proc
					n.E.Schedule(launch+time.Duration(rng.Intn(3000))*time.Millisecond,
						func() { victim.Kill() })
				}
			}

			// Let everything play out, including bind timers.
			n.E.RunUntil(n.E.Now() + 5*n.CM.BindTimeout)
			if leaks := n.Audit(); leaks != nil {
				t.Fatalf("seed %d: %s", seed, leaks)
			}
			n.E.Shutdown()
		})
	}
}

// TestPerVCIRoutingToMultipleHosts exercises §7.4's point that the
// explicit per-VCI IP destination table lets the router route each
// circuit to a different host: two hosts behind the same remote router
// each receive exactly their own circuit's data.
func TestPerVCIRoutingToMultipleHosts(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	h1, err := n.AddHost("ucb.h1", rb)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.AddHost("ucb.h2", rb)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := testbed.StartEchoServer(h1, "svc-one", 6000)
	srv2 := testbed.StartEchoServer(h2, "svc-two", 6000)
	n.E.RunUntil(500 * time.Millisecond)
	var res1, res2 testbed.CallResult
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		res1 = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "svc-one", 7001, "", 3, 0, nil)
		res2 = testbed.OpenAndUseFrames(ra, p, "ucb.rt", "svc-two", 7002, "", 5, 0, nil)
	})
	n.E.RunUntil(time.Minute)
	if res1.Err != nil || res2.Err != nil {
		t.Fatalf("calls: %v / %v", res1.Err, res2.Err)
	}
	if srv1.Received != 3 {
		t.Fatalf("host1 received %d, want 3", srv1.Received)
	}
	if srv2.Received != 5 {
		t.Fatalf("host2 received %d, want 5", srv2.Received)
	}
	// Two distinct VCI->host bindings existed at the remote router.
	if rb.Sig.Anand.Binds != 2 {
		t.Fatalf("VCI_BINDs = %d", rb.Sig.Anand.Binds)
	}
	n.E.Shutdown()
}
