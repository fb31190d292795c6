package trace

import (
	"testing"
	"time"
)

// BenchmarkTraceOverhead/disabled is the CI gate for the tracing
// bargain, the same budget internal/obs enforces: with the collector
// disabled a call site costs one nil check plus one bool load, under
// 5 ns, so tracing compiled into the frame and cell hot paths cannot
// skew the stack's benchmarks. The unsampled case sizes the single
// Context.Sampled() branch hot paths pay for calls head-sampling
// rejected.
func BenchmarkTraceOverhead(b *testing.B) {
	var clock time.Duration
	now := func() time.Duration { return clock }
	b.Run("disabled", func(b *testing.B) {
		c := NewCollector(now)
		b.ReportAllocs()
		b.ResetTimer()
		var ctx Context
		for i := 0; i < b.N; i++ {
			ctx = c.StartTrace("sighost", "bench", uint32(i))
		}
		b.StopTimer()
		if ctx.Sampled() {
			b.Fatal("disabled collector sampled")
		}
		// Enforce the budget only on a real measurement run; the N=1
		// discovery run is all fixed overhead.
		if avg := float64(b.Elapsed().Nanoseconds()) / float64(b.N); b.N >= 1_000_000 && avg > 5 {
			b.Fatalf("disabled trace call site costs %.1f ns, budget is 5 ns", avg)
		}
	})
	b.Run("unsampled", func(b *testing.B) {
		c := NewCollector(now)
		c.SetEnabled(true)
		unsampled := Context{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Record(unsampled, "xswitch", "hop", 0, 1)
			c.EndSpan(unsampled)
		}
	})
	b.Run("sampled-record", func(b *testing.B) {
		c := NewCollector(now)
		c.SetEnabled(true)
		c.spanCap = b.N + 2
		root := c.StartTrace("sighost", "bench", 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Record(root, "xswitch", "hop", 0, 1)
		}
	})
}

// TestUnsampledPathAllocs pins the enabled-but-unsampled contract:
// propagating a zero Context through StartSpan/Record/EndSpan allocates
// nothing, so head sampling really does shed load.
func TestUnsampledPathAllocs(t *testing.T) {
	var clock time.Duration
	c := NewCollector(func() time.Duration { return clock })
	c.SetEnabled(true)
	unsampled := Context{}
	allocs := testing.AllocsPerRun(1000, func() {
		child := c.StartSpan(unsampled, "pfxunet", "frame")
		c.Record(unsampled, "xswitch", "hop", 0, 1)
		c.EndSpan(child)
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %.1f allocs/op, want 0", allocs)
	}
}
