package testbed_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// BenchmarkShardedStorm measures sim-calls/s of the 4-domain E4 storm
// at each worker count — the PR 7 scaling series, which
// `sim_storm_sharded` in `go run ./bench` now tracks. Results are
// byte-identical across the sub-benchmarks (the determinism gate
// proves it); only the wall clock moves. Beside sim-calls/s it reports
// events/s (engine events executed per wall second) and gomaxprocs,
// which records how much hardware parallelism the numbers were achieved
// with, so cross-machine diffs can tell a regression from a smaller
// machine.
func BenchmarkShardedStorm(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := testbed.StormConfig{
				Count: 40, Hold: 50 * time.Millisecond, FramesPerCall: 2,
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
				b.Fatal(err)
			}
			defer sn.Close()
			sn.G.SetWorkers(w)
			sn.RunUntil(time.Second)
			events := func() uint64 {
				var n uint64
				for _, dom := range sn.Domains {
					n += dom.E.EventsExecuted()
				}
				return n
			}
			ev0 := events()
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for i := 0; i < b.N; i++ {
				dcfg := cfg
				dcfg.BasePort = uint16(20000 + (i%200)*256)
				res := testbed.ShardedStorm(sn, dcfg)
				sn.RunUntil(sn.G.Now() + 5*time.Second)
				_, su, _, _ := res.Totals()
				if su == 0 {
					b.Fatalf("iteration %d: no calls succeeded", i)
				}
				done += su
			}
			b.StopTimer()
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "sim-calls/s")
			b.ReportMetric(float64(events()-ev0)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}
