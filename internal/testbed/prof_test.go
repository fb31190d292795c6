package testbed_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/obs/tseries"
	"xunet/internal/prof"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// profiledStorm runs the standard 4-domain E4 storm with the execution
// profiler armed and returns the deterministic counts export plus the
// full snapshot.
func profiledStorm(t *testing.T, seed uint64, workers int) (string, prof.Snapshot) {
	t.Helper()
	cfg := shardedStormConfig()
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:          seed,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
		Prof:          true,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sn.G.SetWorkers(workers)
	sn.RunUntil(time.Second)
	res := testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(12 * time.Second)
	if _, su, _, _ := res.Totals(); su == 0 {
		t.Fatal("profiled storm: no calls succeeded")
	}
	return sn.Prof.CountsText(), sn.Prof.Snapshot()
}

// TestShardedStormProfiledDeterministicAcrossWorkers is the PR 8
// acceptance gate: with the profiler enabled on the sharded E4 storm,
// the deterministic half of the profile — per-shard per-label event
// counts, window and idle-skip counters, the cross-shard post/byte
// matrix — must be byte-identical across same-seed runs at workers 1,
// 2, and 4, and the profile must actually report per-shard stall
// fractions and a critical-shard ranking.
func TestShardedStormProfiledDeterministicAcrossWorkers(t *testing.T) {
	golden, snap := profiledStorm(t, 42, 1)
	if !strings.Contains(golden, "proc.sighost") || !strings.Contains(golden, "xswitch.arrival") || !strings.Contains(golden, "xswitch.trunk.tx") {
		t.Fatalf("counts export missing expected attribution labels:\n%s", firstLines(golden, 12))
	}
	if !strings.Contains(golden, "group: shards 4") {
		t.Fatalf("counts export missing group accounting:\n%s", firstLines(golden, 12))
	}
	if !strings.Contains(golden, "xshard matrix") {
		t.Fatalf("counts export missing the cross-shard matrix:\n%s", golden)
	}

	if snap.Group == nil || snap.Group.Windows == 0 {
		t.Fatal("profiled storm recorded no barrier windows")
	}
	if len(snap.Group.PerShard) != 4 {
		t.Fatalf("per-shard window stats = %d entries, want 4", len(snap.Group.PerShard))
	}
	var exec int64
	for _, ps := range snap.Group.PerShard {
		exec += ps.ExecNS
		f := snap.StallFraction(ps.Shard)
		if f < 0 || f > 1 {
			t.Fatalf("shard %d stall fraction %v outside [0,1]", ps.Shard, f)
		}
	}
	if exec <= 0 {
		t.Fatal("no window execution time recorded")
	}
	ranking := snap.CriticalRanking()
	if len(ranking) != 4 {
		t.Fatalf("critical ranking %v, want a permutation of 4 shards", ranking)
	}
	seen := map[int]bool{}
	for _, s := range ranking {
		if s < 0 || s >= 4 || seen[s] {
			t.Fatalf("critical ranking %v is not a permutation of shards 0-3", ranking)
		}
		seen[s] = true
	}

	for _, w := range []int{2, 4} {
		counts, _ := profiledStorm(t, 42, w)
		diffFingerprints(t, "prof counts workers=1 vs workers="+string(rune('0'+w)), golden, counts)
	}
}

// TestProfSeriesFeedsTSeries checks the wall-clock half's wiring: with
// ProfSeries armed, each domain's store carries the deterministic
// engine-progress series and the wall-clock stall series, and the
// hot-shard watermark rule is installed. (Stall magnitudes are wall
// time, so only presence is asserted, never values.)
func TestProfSeriesFeedsTSeries(t *testing.T) {
	cfg := shardedStormConfig()
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:          42,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
		TSeries:       &tseries.Config{Interval: 50 * time.Millisecond, Capacity: 256},
		ProfSeries:    true,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sn.G.SetWorkers(2)
	sn.StartTSeries(6 * time.Second)
	sn.RunUntil(time.Second)
	testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(6 * time.Second)

	if sn.Prof == nil {
		t.Fatal("ProfSeries did not arm the profiler")
	}
	for _, dom := range sn.Domains {
		text := dom.TS.Text()
		for _, want := range []string{"sim.shard.", ".events", ".stall.ns"} {
			if !strings.Contains(text, want) {
				t.Fatalf("domain %d store missing %q:\n%s", dom.Index, want, firstLines(text, 10))
			}
		}
		if !strings.Contains(dom.TS.HealthText(), "hot-shard-stall") {
			t.Fatalf("domain %d missing the hot-shard-stall rule:\n%s",
				dom.Index, dom.TS.HealthText())
		}
		// The machine registries' engine counters (events executed, timer
		// pool hit rate, heap high-water) join the scrape through the
		// routers' registry prefixes.
		if !strings.Contains(text, "sim.events.executed") || !strings.Contains(text, "sim.pool.hits") {
			t.Fatalf("domain %d store missing engine obs counters:\n%s", dom.Index, firstLines(text, 10))
		}
	}
}

// TestFlatProfiledStorm covers the unsharded path: Options.Prof on a
// plain testbed attributes the storm per proc kind and serves the MGMT
// prof hooks on every router.
func TestFlatProfiledStorm(t *testing.T) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{
		Seed:          1,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
		Prof:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	testbed.StartEchoServer(rb, "storm", 6000)
	n.E.RunUntil(time.Second)
	testbed.CallStorm(ra, rb.Stack.Addr, "storm", testbed.StormConfig{
		Count: 8, Hold: 50 * time.Millisecond, FramesPerCall: 2,
	})
	n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
	defer n.E.Shutdown()

	if n.Prof == nil {
		t.Fatal("Prof option did not arm the profiler")
	}
	text := n.Prof.Text()
	for _, want := range []string{"proc.sighost", "proc.storm-client", "xswitch.arrival"} {
		if !strings.Contains(text, want) {
			t.Fatalf("flat profile missing %q:\n%s", want, firstLines(text, 12))
		}
	}
	// Cells cross a flat fabric pulled: no transmit events, and arrival
	// events for frame ends — one or two each — not one per cell per hop.
	counts := n.Prof.CountsText()
	if strings.Contains(counts, "xswitch.trunk.tx") {
		t.Fatalf("flat profile has boundary transmit events:\n%s", counts)
	}
	var arrivals int
	for _, line := range strings.Split(counts, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "xswitch.arrival" {
			arrivals, _ = strconv.Atoi(f[1])
		}
	}
	if sent, _ := n.Fabric.TrunkStats(); arrivals == 0 || uint64(arrivals) >= sent {
		t.Fatalf("%d arrival events for %d cell-hops", arrivals, sent)
	}
	if got := ra.Sig.SH.View(signaling.MgmtProf); !strings.Contains(got, "proc.sighost") {
		t.Fatalf("MGMT prof view = %s", firstLines(got, 6))
	}
	if got := ra.Sig.SH.View(signaling.MgmtProfJSON); !strings.Contains(got, `"shards"`) {
		t.Fatalf("MGMT prof.json view = %.300s", got)
	}
	if flame := n.Prof.FlameFolded(); !strings.Contains(flame, "shard0;proc.") {
		t.Fatalf("flame export missing shard frames:\n%s", firstLines(flame, 6))
	}
}
