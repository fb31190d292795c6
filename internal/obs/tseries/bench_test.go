package tseries

import "testing"

// disabledPeak is deliberately a package-level var so the compiler cannot
// constant-fold the nil check away, mirroring the trace/faults bench pattern.
var disabledPeak *Peak

// BenchmarkTSeriesOverhead/disabled is the CI gate (make detgate): the
// instrumentation left compiled into hot paths when time-series collection is
// off — a nil Peak note — must stay under 5ns/op.
func BenchmarkTSeriesOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disabledPeak.Note(int64(i))
		}
		avg := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if b.N >= 1_000_000 && avg > 5 {
			b.Fatalf("disabled tseries hook costs %.2f ns/op, budget is 5 ns/op", avg)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var p Peak
		for i := 0; i < b.N; i++ {
			p.Note(int64(i % 64))
		}
	})
}
