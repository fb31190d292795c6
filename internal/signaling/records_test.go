package signaling_test

import (
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
	"xunet/internal/ulib"
)

// chaosStorm runs the storm `xunetsim chaos` runs (seed 7, fault
// cocktail 99, two crashes of the callee's signaling entity) with both
// routers' transition records watched, and returns the testbed and the
// two routers' chains once it is quiescent.
func chaosStorm(t *testing.T, watch ...func(*signaling.Sighost)) (*testbed.Net, []*signaling.Chains) {
	opts := testbed.Options{Seed: 7, DeviceBuffers: kern.FixedDeviceBuffers, FDTableSize: kern.FixedFDTableSize}
	opts.Faults = testbed.ChaosCocktail(99)
	n, ra, rb, err := testbed.NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	ha, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*ulib.Lib{ra.Lib, rb.Lib, ha.Lib} {
		l.SetTimeouts(ulib.Timeouts{
			RPC: 10 * time.Second, Establish: 60 * time.Second,
			Attempts: 2, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second,
		})
	}
	testbed.StartEchoServer(rb, "storm", 6000)
	testbed.StartEchoServer(rb, "hstorm", 6001)
	for _, w := range watch {
		w(ra.Sig.SH)
		w(rb.Sig.SH)
	}
	chains := []*signaling.Chains{signaling.WatchChains(ra.Sig.SH), signaling.WatchChains(rb.Sig.SH)}
	n.RunUntil(time.Second)
	n.StartTrunkFlapping(20 * time.Second)
	testbed.CallStorm(ra, rb.Stack.Addr, "storm", testbed.StormConfig{
		Count: 40, Hold: time.Second, FramesPerCall: 2, Stagger: 20 * time.Millisecond,
	})
	testbed.CallStorm(ha, rb.Stack.Addr, "hstorm", testbed.StormConfig{
		Count: 15, Hold: time.Second, FramesPerCall: 2, Stagger: 50 * time.Millisecond, BasePort: 25000,
	})
	n.E.Schedule(3*time.Second, func() { rb.Sig.CrashFor(400 * time.Millisecond) })
	n.E.Schedule(12*time.Second, func() { rb.Sig.CrashFor(400 * time.Millisecond) })
	n.RunUntil(n.E.Now() + 60*time.Second)
	return n, chains
}

// TestChaosRecordChains: on the chaos storm, per sighost and call, the
// records form one chain from a new call to one release, a crash closes
// the chains it interrupts and recovery reopens the calls it rebuilds,
// and at quiescence every kept length equals its map's.
func TestChaosRecordChains(t *testing.T) {
	_, chains := chaosStorm(t)
	for i, ch := range chains {
		if err := ch.Err(); err != nil {
			t.Errorf("router %d: %v", i, err)
		}
		if ch.Records == 0 {
			t.Errorf("router %d published no records", i)
		}
	}
	if chains[1].Rebuilt == 0 {
		t.Error("no crash interrupted a call: the storm no longer exercises recovery")
	}
}

// TestSpansAreStates: on the same storm, every lifecycle span of every
// finished trace starts at the record that entered its state and ends
// at the record that left it (or, for dest.deliver, when the grant was
// published), and a call torn down mid-state leaves its span Open.
func TestSpansAreStates(t *testing.T) {
	n, chains := chaosStorm(t)
	seen := map[string]int{}
	for _, tr := range n.TraceC.Completed() {
		if err := signaling.SpanErr(tr, seen, chains...); err != nil {
			t.Error(err)
		}
	}
	for _, name := range []string{"root", "call.setup", "process", "peer", "program", "dest.accept", "dest.deliver", "wait_bind", "open"} {
		if seen[name] == 0 {
			t.Errorf("no finished trace holds a %s span: the storm no longer reaches its state", name)
		}
	}
	t.Logf("spans checked: %v", seen)
}

// TestProtocolCellsExercised runs the chaos storm and every row of
// TestEveryCauseEndsOnce with each sighost's protocol cells counted. It
// logs the hits per cell, which for the ignored cells is the measured
// traffic of the off-path inputs, and fails on an action cell no run
// reaches, or a cell that leaves its call off the table.
func TestProtocolCellsExercised(t *testing.T) {
	var cs signaling.Cells
	chaosStorm(t, cs.Watch)
	cs.RunEndRows(t)
	t.Logf("cells run:\n%s", cs.Hits())
	if err := cs.Err(); err != nil {
		t.Error(err)
	}
}
