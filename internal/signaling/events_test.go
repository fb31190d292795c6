package signaling

import (
	"testing"

	"xunet/internal/obs"
)

// TestTracerEnableAndSubscribe drives calls through sighost's event
// ring: nothing is published while tracing is off; while it is on each
// event is stamped Comp "sighost" and a Seq one past the last, and read
// back rendered; the ring wraps to the newest obs.DefaultRingSize.
func TestTracerEnableAndSubscribe(t *testing.T) {
	w, shA, shB, envA, envB := newBenchPair()
	driveOneCall(t, w, shA, shB, envA, envB)
	if evs := shA.Events(obs.DefaultRingSize); evs != nil {
		t.Fatalf("tracing off, yet the ring holds %d events", len(evs))
	}

	shA.EnableTrace(true)
	var evs []obs.Event
	for calls := 0; len(evs) == 0 || evs[0].Seq == 0; calls++ {
		if calls == 100 {
			t.Fatalf("100 calls never wrapped the ring: it holds %d events", len(evs))
		}
		driveOneCall(t, w, shA, shB, envA, envB)
		evs = shA.Events(obs.DefaultRingSize)
	}
	if len(evs) != obs.DefaultRingSize {
		t.Fatalf("a wrapped ring holds %d events, want %d", len(evs), obs.DefaultRingSize)
	}
	for i, ev := range evs {
		if ev.Comp != "sighost" || ev.Text == "" || ev.Seq != evs[0].Seq+uint64(i) {
			t.Fatalf("event %d of %d: %+v", i, len(evs), ev)
		}
	}
	last := evs[len(evs)-1]
	if got := shA.Events(1); len(got) != 1 || got[0].Seq != last.Seq {
		t.Fatalf("Events(1) = %+v, want Seq %d", got, last.Seq)
	}

	shA.EnableTrace(false)
	driveOneCall(t, w, shA, shB, envA, envB)
	if got := shA.Events(1); got[0].Seq != last.Seq {
		t.Fatalf("tracing off again, yet Seq moved from %d to %d", last.Seq, got[0].Seq)
	}
}

// BenchmarkEventRingOverhead/disabled is a `make detgate` gate, like
// the trace, faults and tseries ones: with tracing off an event call
// site costs under 5 ns (one nil check and one atomic load), so the
// events compiled into sighost's paths cannot skew clean-path numbers.
func BenchmarkEventRingOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		_, sh, _, _, _ := newBenchPair()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sh.traceOn() {
				sh.emit(obs.Event{Kind: "never"})
			}
		}
		b.StopTimer()
		// Enforce the budget only on a real measurement run; the N=1
		// discovery run is all fixed overhead.
		if avg := float64(b.Elapsed().Nanoseconds()) / float64(b.N); b.N >= 1_000_000 && avg > 5 {
			b.Fatalf("disabled event call site costs %.1f ns, budget is 5 ns", avg)
		}
	})
}
