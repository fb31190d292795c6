package obs

import (
	"testing"
	"time"
)

// BenchmarkTelemetryOverhead sizes the enabled toolkit: a ring publish,
// a counter increment, a histogram observation. The disabled event
// ring's 5 ns gate is sighost's (BenchmarkEventRingOverhead), since
// sighost owns the ring's on/off switch.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("enabled-ring-publish", func(b *testing.B) {
		r := NewRing(DefaultRingSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Publish(Event{Kind: "k", VCI: uint32(i)})
		}
	})
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
