package testbed_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/obs/tseries"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// shardedStormConfig is the standard 4-domain E4 topology the sharded
// tests exercise: four switches in a ring, two sighosts each, 2 ms
// inter-domain trunks funding the lookahead, a 24-call storm with
// periodic client kills, and carrier frames riding every cross-domain
// circuit so the boundary path is on the measured history.
func shardedStormConfig() testbed.StormConfig {
	return testbed.StormConfig{
		Count: 24, Hold: 150 * time.Millisecond, FramesPerCall: 2,
		KillEvery: 7, KillAfter: 40 * time.Millisecond,
		Domains: 4, SighostsPerDomain: 2, TrunkDelay: 2 * time.Millisecond,
		CrossFrames: 8,
	}
}

// shardedFingerprint renders every observable artifact of one sharded
// storm run into a single string: per-router golden sighost traces,
// per-router sighost event rings, per-domain storm buckets and carrier
// counters, flight-dump and health-event tallies, and each domain's
// time-series export. The worker count must never change a byte of it.
func shardedFingerprint(t *testing.T, seed uint64, workers int, chaos bool) string {
	t.Helper()
	cfg := shardedStormConfig()
	opts := testbed.Options{
		Seed:          seed,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
		TSeries:       &tseries.Config{Interval: 50 * time.Millisecond, Capacity: 256},
	}
	if chaos {
		opts.Faults = testbed.ChaosCocktail(99)
	}
	sn, err := testbed.NewSharded(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sn.G.SetWorkers(workers)
	// One trace builder per router: each callback fires only on its own
	// shard's goroutine, so the builders need no locks, and concatenating
	// them in topology order is deterministic.
	type rtrace struct {
		name string
		sb   strings.Builder
	}
	var traces []*rtrace
	for _, dom := range sn.Domains {
		for _, r := range dom.Routers {
			rt := &rtrace{name: string(r.Stack.Addr)}
			r.Sig.SH.EnableTrace(true)
			r.Sig.SH.Trace = func(l string) { fmt.Fprintf(&rt.sb, "%s\n", l) }
			traces = append(traces, rt)
		}
	}
	const runFor = 12 * time.Second
	sn.StartTSeries(runFor)
	if chaos {
		sn.StartTrunkFlapping(runFor)
	}
	sn.RunUntil(time.Second)
	res := testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(runFor)

	var sb strings.Builder
	la, su, fa, ki := res.Totals()
	fmt.Fprintf(&sb, "storm: launched=%d ok=%d failed=%d killed=%d\n", la, su, fa, ki)
	for i, dr := range res.PerDomain {
		fmt.Fprintf(&sb, "d%d: launched=%d ok=%d failed=%d killed=%d min=%v max=%v total=%v cross=%d\n",
			i, dr.Launched, dr.Succeeded, dr.Failed, dr.Killed,
			dr.MinSetup, dr.MaxSetup, dr.TotalSetup, sn.Domains[i].CrossDelivered)
	}
	for _, rt := range traces {
		fmt.Fprintf(&sb, "== trace %s\n%s", rt.name, rt.sb.String())
	}
	for _, dom := range sn.Domains {
		for _, r := range dom.Routers {
			evs, err := json.Marshal(r.Sig.SH.Events(signaling.EventRingSize))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s ring events=%s\n", r.Stack.Addr, evs)
		}
		ts, err := json.Marshal(dom.TS.Export())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "d%d dumps=%d health=%d tseries: %s\n",
			dom.Index, len(dom.FlightDumps), len(dom.HealthEvents), ts)
	}
	return sb.String()
}

// diffFingerprints fails the test at the first diverging line.
func diffFingerprints(t *testing.T, label, first, second string) {
	t.Helper()
	if first == second {
		return
	}
	a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("%s: runs diverge at line %d:\n run1: %s\n run2: %s",
				label, i+1, firstLines(a[i], 1), firstLines(b[i], 1))
		}
	}
	t.Fatalf("%s: runs diverge in length: %d vs %d lines", label, len(a), len(b))
}

// TestShardedStormDeterministicAcrossWorkers is the PR 7 acceptance
// gate: the same seeded multi-domain storm must yield byte-identical
// history — traces, rings, buckets, telemetry — at workers=1
// (the sequential golden reference) and any parallel worker count.
func TestShardedStormDeterministicAcrossWorkers(t *testing.T) {
	golden := shardedFingerprint(t, 42, 1, false)
	if !strings.Contains(golden, "launched=24") || strings.Contains(golden, "storm: launched=24 ok=0") {
		t.Fatalf("storm did not run the intended workload:\n%s", firstLines(golden, 6))
	}
	if strings.Contains(golden, "cross=0\n") {
		t.Fatalf("cross-domain carriers delivered nothing:\n%s", firstLines(golden, 6))
	}
	if !strings.Contains(golden, `"comp":"sighost"`) || !strings.Contains(golden, `"interval_ns"`) {
		t.Fatal("fingerprint carries no event-ring or time-series content")
	}
	for _, w := range []int{2, 4} {
		diffFingerprints(t, fmt.Sprintf("workers=1 vs workers=%d", w),
			golden, shardedFingerprint(t, 42, w, false))
	}
}

// TestShardedChaosDeterministicAcrossWorkers soaks the sharded engine
// under the standard fault cocktail — loss, duplication, delay,
// Gilbert–Elliott trunk bursts, flapping, client kills — and requires
// the healed history to stay byte-identical across worker counts. Under
// `make race` this doubles as the parallel-engine data-race soak.
func TestShardedChaosDeterministicAcrossWorkers(t *testing.T) {
	golden := shardedFingerprint(t, 7, 1, true)
	if !strings.Contains(golden, "launched=24") {
		t.Fatalf("chaos storm did not launch:\n%s", firstLines(golden, 6))
	}
	diffFingerprints(t, "chaos workers=1 vs workers=4",
		golden, shardedFingerprint(t, 7, 4, true))
}

// TestShardedFlatDegenerate checks the Domains=1 degenerate case: one
// shard, zero lookahead (so a run is one window to its horizon plus the
// boundary pass), no boundary trunks — the sharded assembly must behave
// like a plain testbed, with every call succeeding and the signaling
// lists draining clean.
func TestShardedFlatDegenerate(t *testing.T) {
	cfg := testbed.StormConfig{
		Count: 8, Hold: 50 * time.Millisecond, FramesPerCall: 2,
		SighostsPerDomain: 2,
	}
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:          7,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
		Prof:          true,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if got := sn.G.Shards(); got != 1 {
		t.Fatalf("flat config built %d shards, want 1", got)
	}
	sn.RunUntil(time.Second)
	if w := sn.Prof.Snapshot().Group.Windows; w != 2 {
		t.Fatalf("flat config ran %d windows to 1s, want 2 (zero lookahead)", w)
	}
	res := testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(time.Second + 4*sn.CM.BindTimeout)
	la, su, fa, _ := res.Totals()
	if la != 8 || su != 8 || fa != 0 {
		t.Fatalf("flat sharded storm: launched=%d ok=%d failed=%d, want 8/8/0", la, su, fa)
	}
	if leaks := sn.Audit(); leaks != nil {
		t.Fatalf("flat sharded storm left state: %s", leaks)
	}
}

// TestShardedMeshFitsPaperFDTable: sighost's signaling PVC sockets take
// no descriptors, so a mesh of twelve routers — eleven peers, twenty-two
// PVC sockets each — builds and places calls under the paper's table of
// 20, which limits only what applications open.
func TestShardedMeshFitsPaperFDTable(t *testing.T) {
	cfg := testbed.StormConfig{
		Count: 8, Hold: 50 * time.Millisecond,
		Domains: 4, SighostsPerDomain: 3, TrunkDelay: 2 * time.Millisecond,
	}
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:          7,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.DefaultFDTableSize,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	routers := 0
	for _, dom := range sn.Domains {
		routers += len(dom.Routers)
	}
	if routers != 12 {
		t.Fatalf("built %d routers, want 12", routers)
	}
	sn.RunUntil(time.Second)
	res := testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(time.Second + 4*sn.CM.BindTimeout)
	if la, su, _, _ := res.Totals(); la != 8 || su != 8 {
		t.Fatalf("launched=%d ok=%d, want 8/8", la, su)
	}
	if leaks := sn.Audit(); leaks != nil {
		t.Fatalf("storm left state: %s", leaks)
	}
}

// TestShardedStormSplitsRemainder: a call count the domains do not
// divide is launched in full, the first Count % Domains domains taking
// one extra call each.
func TestShardedStormSplitsRemainder(t *testing.T) {
	cfg := testbed.StormConfig{
		Count: 10, Hold: 50 * time.Millisecond,
		Domains: 3, SighostsPerDomain: 2,
	}
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:          7,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sn.RunUntil(time.Second)
	res := testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(time.Second + 4*sn.CM.BindTimeout)
	var got []int
	for _, dr := range res.PerDomain {
		got = append(got, dr.Launched)
	}
	if want := []int{4, 3, 3}; !slices.Equal(got, want) {
		t.Fatalf("calls launched per domain = %v, want %v", got, want)
	}
}

// TestShardedCloseNoLeak verifies the explicit-shutdown contract: after
// Close, every shard process goroutine and window worker is gone, even
// when procs were parked mid-run and the worker pool was live.
func TestShardedCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := shardedStormConfig()
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:          3,
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sn.G.SetWorkers(4)
	sn.RunUntil(time.Second)
	testbed.ShardedStorm(sn, cfg)
	sn.RunUntil(1500 * time.Millisecond) // stop mid-storm: procs are live and parked
	live := int64(0)
	for _, dom := range sn.Domains {
		for _, r := range dom.Routers {
			live += r.Stack.M.Obs.Gauge("kern.procs.live").Value()
		}
	}
	if live == 0 {
		t.Fatal("expected live processes before Close")
	}
	sn.Close()
	sn.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC() // let exiting goroutines finish
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// shardedCallsPerSecond measures wall-clock sim-calls/s of the standard
// sharded storm at a worker count (clean path, logging and tracing off
// so the measurement is the engine, not the modeled stalls).
func shardedCallsPerSecond(t *testing.T, workers int) float64 {
	t.Helper()
	cfg := testbed.StormConfig{
		Count: 96, Hold: 50 * time.Millisecond, FramesPerCall: 2,
		Domains: 4, SighostsPerDomain: 2, TrunkDelay: 2 * time.Millisecond,
	}
	sn, err := testbed.NewSharded(testbed.Options{
		Seed:               11,
		DeviceBuffers:      kern.FixedDeviceBuffers,
		FDTableSize:        kern.FixedFDTableSize,
		DisableCallLogging: true,
		DisableTracing:     true,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sn.G.SetWorkers(workers)
	sn.RunUntil(time.Second)
	start := time.Now()
	done := 0
	for i := 0; i < 4; i++ {
		dcfg := cfg
		dcfg.BasePort = uint16(20000 + i*256)
		res := testbed.ShardedStorm(sn, dcfg)
		sn.RunUntil(sn.G.Now() + 5*time.Second)
		_, su, _, _ := res.Totals()
		done += su
	}
	elapsed := time.Since(start)
	if done == 0 {
		t.Fatal("scaling workload completed no calls")
	}
	return float64(done) / elapsed.Seconds()
}

// TestShardedScalingGate is the PR 7 throughput acceptance: ≥ 2.5×
// sim-calls/s at 4 workers over 1 on a 4-domain topology. Parallel
// speedup needs parallel hardware, so the gate skips (loudly) unless
// four Ps can run on four CPUs at once: `-cpu 4` on a 2-CPU machine
// gives four Ps and no speedup. The determinism gates above still run
// there and cover correctness.
func TestShardedScalingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if np, nc := runtime.GOMAXPROCS(0), runtime.NumCPU(); min(np, nc) < 4 {
		t.Skipf("scaling gate needs 4 Ps on 4 CPUs, have GOMAXPROCS %d on %d CPUs: skipping the speedup assertion", np, nc)
	}
	base := shardedCallsPerSecond(t, 1)
	par := shardedCallsPerSecond(t, 4)
	t.Logf("sim-calls/s: workers=1 %.1f, workers=4 %.1f (%.2fx)", base, par, par/base)
	if par < 2.5*base {
		t.Errorf("4-worker speedup %.2fx below the 2.5x gate (w1=%.1f w4=%.1f sim-calls/s)",
			par/base, base, par)
	}
}
