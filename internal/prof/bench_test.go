package prof

import (
	"testing"
	"time"
)

// benchProf is package-level so the compiler cannot constant-fold the
// nil check a hook site performs; loading it each iteration is exactly
// what the engine loop does with Engine.prof.
var benchProf *EngineProf

var benchGroup *GroupProf

var benchSink int64

// BenchmarkProfOverhead/disabled is a `make detgate` CI gate, matching the
// trace/faults/tseries bargains: with no profiler attached the hooks
// compiled into the engine loop, the proc dispatch path, and the
// cross-shard post path cost one pointer load plus one nil comparison
// — under 5 ns — so an always-linked profiler cannot skew unprofiled
// runs.
func BenchmarkProfOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchProf = nil
		benchGroup = nil
		b.ReportAllocs()
		b.ResetTimer()
		var l LabelID
		for i := 0; i < b.N; i++ {
			if p := benchProf; p != nil {
				p.Account(l, 1)
			}
			l = benchProf.Label("x")
			benchGroup.NotePost(0, 1, 53)
		}
		b.StopTimer()
		benchSink = int64(l)
		// Enforce the budget only on a real measurement run; the N=1
		// discovery run is all fixed overhead.
		if avg := float64(b.Elapsed().Nanoseconds()) / float64(b.N); b.N >= 1_000_000 && avg > 5 {
			b.Fatalf("disabled profiler hooks cost %.1f ns, budget is 5 ns", avg)
		}
	})
	b.Run("enabled-account", func(b *testing.B) {
		benchProf = newEngineProf(0)
		l := benchProf.Label("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchProf.Account(l, 1)
		}
		b.StopTimer()
		benchProf = nil
	})
	b.Run("enabled-timed-event", func(b *testing.B) {
		// The full per-event cost with profiling on: two clock reads
		// plus the atomic accounting — what an armed run pays.
		benchProf = newEngineProf(0)
		l := benchProf.Label("bench")
		b.ReportAllocs()
		b.ResetTimer()
		var ns int64
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			ns += 1
			benchProf.Account(l, time.Since(t0).Nanoseconds())
		}
		b.StopTimer()
		benchSink = ns
		benchProf = nil
	})
}
