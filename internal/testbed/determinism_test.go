package testbed_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// The engine-pooling and cell-train optimizations must not perturb
// event order: a seeded workload has to produce its recorded virtual
// history down to the byte. stormFingerprint renders every
// observable artifact of one call-storm run — the golden sighost trace
// lines, the sighosts' typed event rings (with virtual timestamps and
// sequence numbers), the storm result, and the final registry
// snapshots — into a single string for comparison.
func stormFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{
		Seed:          seed,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ra.Sig.SH.EnableTrace(true)
	rb.Sig.SH.EnableTrace(true)
	ra.Sig.SH.Trace = func(l string) { fmt.Fprintf(&sb, "A %s\n", l) }
	rb.Sig.SH.Trace = func(l string) { fmt.Fprintf(&sb, "B %s\n", l) }
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	res := testbed.CallStorm(ra, "ucb.rt", "storm", testbed.StormConfig{
		Count: 30, Hold: 250 * time.Millisecond, FramesPerCall: 2,
		KillEvery: 7, KillAfter: 40 * time.Millisecond,
	})
	n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
	fmt.Fprintf(&sb, "storm: launched=%d ok=%d failed=%d killed=%d min=%v max=%v total=%v\n",
		res.Launched, res.Succeeded, res.Failed, res.Killed,
		res.MinSetup, res.MaxSetup, res.TotalSetup)
	for _, rr := range []struct {
		name string
		r    *testbed.Router
	}{{"mh.rt", ra}, {"ucb.rt", rb}} {
		evs, err := json.Marshal(rr.r.Sig.SH.Events(signaling.EventRingSize))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s ring events=%s\n", rr.name, evs)
	}
	fmt.Fprintf(&sb, "report:\n%s", n.Snapshot().String())
	n.E.Shutdown()
	return sb.String()
}

// TestCallStormDeterministicAcrossRuns holds the storm's fingerprint to
// testdata/callstorm.golden, each ring's records on lines of their own.
func TestCallStormDeterministicAcrossRuns(t *testing.T) {
	checkGolden(t, "callstorm", oneRecordPerLine([]byte(stormFingerprint(t, 42))))
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
