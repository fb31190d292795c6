package testbed_test

import (
	"testing"
	"time"

	"xunet/internal/core"
	"xunet/internal/faults"
	"xunet/internal/testbed"
)

// hostRig builds the testbed with one host behind mh.rt.
func hostRig(t *testing.T) (*testbed.Net, *testbed.Host) {
	t.Helper()
	n, ra, _, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	host, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	n.E.RunUntil(100 * time.Millisecond) // let anand client connect
	return n, host
}

// poolsBalance fails t for each mbuf, cluster or chain a machine's pool
// still has out: every frame a carrier re-injected has met its consumer.
func poolsBalance(t *testing.T, n *testbed.Net, host *testbed.Host) {
	t.Helper()
	stacks := []*core.Stack{host.Stack}
	for _, r := range n.Routers {
		stacks = append(stacks, r.Stack)
	}
	for _, s := range stacks {
		s.M.Pool.Audit(func(list string, out, want int) {
			if out != want {
				t.Errorf("%s %s out: %d, want %d", s.Addr, list, out, want)
			}
		})
	}
}

func TestCarrierRawIP(t *testing.T) {
	n, host := hostRig(t)
	res, err := testbed.RunCarrierTransfer(n, host, 200, 1400, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 200 {
		t.Fatalf("delivered %d of 200 over raw IP", res.Delivered)
	}
	poolsBalance(t, n, host)
	if res.ThroughputBps(1400) < 10_000_000 {
		t.Fatalf("raw IP throughput %.0f bps", res.ThroughputBps(1400))
	}
	n.E.Shutdown()
}

func TestCarrierUDP(t *testing.T) {
	n, host := hostRig(t)
	if _, err := testbed.UseUDPCarrier(host); err != nil {
		t.Fatal(err)
	}
	res, err := testbed.RunCarrierTransfer(n, host, 200, 1400, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 200 {
		t.Fatalf("delivered %d of 200 over UDP carrier", res.Delivered)
	}
	poolsBalance(t, n, host)
	n.E.Shutdown()
}

func TestCarrierTCP(t *testing.T) {
	n, host := hostRig(t)
	if _, err := testbed.UseTCPCarrier(host); err != nil {
		t.Fatal(err)
	}
	res, err := testbed.RunCarrierTransfer(n, host, 200, 1400, 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 200 {
		t.Fatalf("delivered %d of 200 over TCP carrier", res.Delivered)
	}
	poolsBalance(t, n, host)
	n.E.Shutdown()
}

// TestCarrierLossBehaviour shows the §5.4 contrast under loss on the
// host-router segment: the raw-IP carrier loses frames but detects the
// gaps by sequence number; the TCP carrier masks the loss at the price
// of retransmission delay and flow-control coupling.
func TestCarrierLossBehaviour(t *testing.T) {
	// Raw IP under loss: frames vanish, sequence numbers notice.
	n1, host1 := hostRig(t)
	host1.Stack.M.IP.SetFaults(faults.NewPlane(faults.Config{PktLoss: 0.1}))
	res1, err := testbed.RunCarrierTransfer(n1, host1, 200, 1400, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Delivered >= 200 {
		t.Fatalf("raw IP delivered %d of 200 despite 10%% loss", res1.Delivered)
	}
	if host1.Router.Stack.ATM.OutOfOrder == 0 {
		t.Fatal("loss not detected by the encapsulation sequence numbers")
	}
	n1.E.Shutdown()

	// TCP under the same loss: everything arrives (retransmitted).
	n2, host2 := hostRig(t)
	st, err := testbed.UseTCPCarrier(host2)
	if err != nil {
		t.Fatal(err)
	}
	host2.Stack.M.IP.SetFaults(faults.NewPlane(faults.Config{PktLoss: 0.1}))
	res2, err := testbed.RunCarrierTransfer(n2, host2, 200, 1400, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Delivered != 200 {
		t.Fatalf("TCP carrier delivered %d of 200 under loss", res2.Delivered)
	}
	if st.FramesDelivered != 200 {
		t.Fatalf("tunnel delivered %d", st.FramesDelivered)
	}
	// The paper's complaint about TCP encapsulation: recovery costs
	// time — the lossy TCP run must be slower than the clean raw run.
	if res2.Elapsed <= res1.Elapsed {
		t.Fatalf("TCP under loss (%v) not slower than raw IP (%v)", res2.Elapsed, res1.Elapsed)
	}
	n2.E.Shutdown()
}

func TestCarrierStrings(t *testing.T) {
	if testbed.CarrierRawIP.String() != "raw-ip" || testbed.CarrierUDP.String() != "udp" || testbed.CarrierTCP.String() != "tcp" {
		t.Fatal("carrier names wrong")
	}
}
