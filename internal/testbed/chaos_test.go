package testbed_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// TestChaosSoak is the PR's headline acceptance run: the call storms
// under the full fault cocktail plus two mid-storm crashes must end
// with every call in exactly one terminal bucket and zero leaked
// signaling state on either router.
func TestChaosSoak(t *testing.T) {
	n, res, resH, err := testbed.ChaosSoak(io.Discard, 7, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ra, rb := n.Routers[0], n.Routers[1]

	// Every call terminated, each in exactly one bucket.
	if res.Launched != 40 || resH.Launched != 15 {
		t.Fatalf("launched %d/40 + %d/15 calls", res.Launched, resH.Launched)
	}
	for _, sr := range []*testbed.StormResult{res, resH} {
		if sr.Succeeded+sr.Failed != sr.Launched {
			t.Fatalf("buckets don't partition: ok=%d failed=%d launched=%d",
				sr.Succeeded, sr.Failed, sr.Launched)
		}
		for i, r := range sr.Results {
			if r.OK && r.Err != nil {
				t.Errorf("call %d in both buckets: OK with err %v", i, r.Err)
			}
			if !r.OK && r.Err == nil {
				t.Errorf("call %d in neither bucket", i)
			}
		}
	}
	// The cocktail actually fired: chaos that injects nothing proves
	// nothing.
	snap := n.Faults.Obs.Snapshot()
	for _, c := range []string{"faults.sig.drop", "faults.pkt.drop", "faults.trunk.flaps", "faults.trunk.flap_drops"} {
		if snap.Count(c) == 0 {
			t.Errorf("%s = 0; the storm ran without that fault class", c)
		}
	}
	// Healing happened: the reliable channel retransmitted on both
	// sides, duplicates were absorbed, and the journal both aborted
	// mid-setup calls (first crash) and restored bound calls (second).
	for _, r := range []*testbed.Router{ra, rb} {
		reg := r.Stack.M.Obs.Snapshot()
		if reg.Count("sighost.rel.retransmits") == 0 {
			t.Errorf("%s never retransmitted under 1%% signaling loss", r.Stack.Addr)
		}
		if reg.Count("sighost.rel.dups") == 0 {
			t.Errorf("%s never absorbed a duplicate", r.Stack.Addr)
		}
	}
	reg := rb.Stack.M.Obs.Snapshot()
	if got := reg.Count("sighost.crashes"); got != 2 {
		t.Errorf("sighost.crashes = %d, want 2", got)
	}
	if got := reg.Count("sighost.recoveries"); got != 2 {
		t.Errorf("sighost.recoveries = %d, want 2", got)
	}
	if reg.Count("sighost.recovered.bound") == 0 {
		t.Error("no bound call survived a crash via the journal")
	}
	if reg.Count("sighost.recovery.aborted_calls") == 0 {
		t.Error("no mid-setup call was aborted by recovery")
	}
	// Zero leaked state: transient lists, cookies, active calls and
	// application connections all drained on both sides.
	if leaks := n.Audit(); leaks != nil {
		t.Errorf("leak: %s", leaks)
	}
	// Failed calls failed fast with the recovery reason, not by running
	// out a 60 s client timeout, and left span trees in the recorder.
	for _, sr := range []*testbed.StormResult{res, resH} {
		for i, r := range sr.Results {
			if !r.OK && !strings.Contains(r.Err.Error(), "lost in signaling restart") &&
				!strings.Contains(r.Err.Error(), "retransmit budget exhausted") &&
				!strings.Contains(r.Err.Error(), "signaling entity restarted") {
				t.Errorf("call %d failed outside the recovery paths: %v", i, r.Err)
			}
		}
	}
	if res.Failed+resH.Failed > 0 && len(n.FlightDumps) == 0 {
		t.Errorf("%d calls failed but the flight recorder dumped nothing", res.Failed+resH.Failed)
	}
}

// TestZeroProbPlaneInvisibleEndToEnd is the golden-preservation claim
// at deployment scale: attaching a fault plane whose probabilities are
// all zero to every hook (IP links, fabric trunks, pseudo-devices) must
// leave the full storm fingerprint byte-identical to a plane-free run.
func TestZeroProbPlaneInvisibleEndToEnd(t *testing.T) {
	run := func(attachZeroPlane bool) string {
		n, ra, rb, err := testbed.NewTestbed(testbed.Options{
			Seed:          5,
			DeviceBuffers: kern.FixedDeviceBuffers,
			FDTableSize:   kern.FixedFDTableSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		if attachZeroPlane {
			fp := faults.NewPlane(faults.Config{})
			ra.Stack.M.IP.SetFaults(fp)
			rb.Stack.M.IP.SetFaults(fp)
			n.Fabric.Faults = fp
			ra.Stack.M.Dev.SetFaults(fp)
			rb.Stack.M.Dev.SetFaults(fp)
		}
		testbed.StartEchoServer(rb, "storm", 6000)
		n.E.RunUntil(time.Second)
		res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
			Count: 30, Hold: 250 * time.Millisecond, FramesPerCall: 2,
		})
		n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
		var sb strings.Builder
		fmt.Fprintf(&sb, "storm: launched=%d ok=%d failed=%d min=%v max=%v total=%v\n",
			res.Launched, res.Succeeded, res.Failed, res.MinSetup, res.MaxSetup, res.TotalSetup)
		fmt.Fprintf(&sb, "report:\n%s", n.Snapshot().String())
		n.E.Shutdown()
		return sb.String()
	}
	plain := run(false)
	planed := run(true)
	if plain != planed {
		a, b := strings.Split(plain, "\n"), strings.Split(planed, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("zero-prob plane perturbed the run at line %d:\n bare: %s\n plane: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("zero-prob plane changed run length: %d vs %d lines", len(a), len(b))
	}
}
