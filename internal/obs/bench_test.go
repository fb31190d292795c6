package obs

import (
	"testing"
	"time"
)

// BenchmarkTelemetryOverhead sizes the enabled toolkit: a counter
// increment, a histogram observation. Sighost's event history is timed
// beside it (BenchmarkEventRingOverhead).
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := NewRegistry().Counter("c")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := NewRegistry().Histogram("h")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})
}
