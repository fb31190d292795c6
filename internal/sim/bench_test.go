package sim

import (
	"testing"
	"time"
)

// Engine micro-benchmarks: wall-clock cost of the simulation substrate
// itself (event dispatch, process switches, queue handoffs). These
// bound how large a scenario the reproduction can run.

// BenchmarkScheduleRun measures the steady-state schedule/dispatch path
// on one long-lived engine: after warmup every event comes from the
// free list, so an op is 1000 pooled schedule+run cycles with zero
// allocations (gated by TestScheduleRunSteadyStateAllocs).
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	// Warm the free list to the working-set depth.
	for j := 0; j < 1000; j++ {
		e.Schedule(time.Duration(j)*time.Microsecond, fn)
	}
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, fn)
		}
		e.Run()
	}
	b.StopTimer()
	b.ReportMetric(1000, "events/op")
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*1000/elapsed.Seconds(), "events/sec")
	}
}

// TestScheduleRunSteadyStateAllocs gates the engine's hot path: once the
// free list is warm, scheduling and running events must not allocate.
func TestScheduleRunSteadyStateAllocs(t *testing.T) {
	e := New(1)
	fn := func() {}
	run := func() {
		for j := 0; j < 100; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, fn)
		}
		e.Run()
	}
	run() // warm the free list
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state schedule/run allocates %.1f times per cycle, want 0", avg)
	}
}

func BenchmarkProcSwitch(b *testing.B) {
	e := New(1)
	stop := false
	p := e.Go("switcher", func(p *Proc) {
		for !stop {
			p.Sleep(time.Microsecond)
		}
	})
	_ = p
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunFor(time.Microsecond)
	}
	b.StopTimer()
	stop = true
	e.RunFor(time.Millisecond)
}

func BenchmarkQueueHandoff(b *testing.B) {
	e := New(1)
	q := NewQueue[int]()
	n := 0
	e.Go("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			n++
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(i)
		e.RunFor(0)
	}
	b.StopTimer()
	q.Close()
	e.RunFor(time.Millisecond)
	if n != b.N {
		b.Fatalf("delivered %d of %d", n, b.N)
	}
}

func TestKillParkedProc(t *testing.T) {
	e := New(1)
	cleaned := false
	p := e.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Park()
	})
	e.Go("killer", func(k *Proc) {
		k.Sleep(time.Millisecond)
		p.Kill()
	})
	e.Run()
	if !cleaned || !p.Done() {
		t.Fatalf("cleaned=%v done=%v", cleaned, p.Done())
	}
	if e.Parked() != 0 || e.Live() != 0 {
		t.Fatalf("parked=%d live=%d", e.Parked(), e.Live())
	}
}

func TestKillSleepingProcDiesImmediately(t *testing.T) {
	e := New(1)
	var diedAt time.Duration
	p := e.Go("victim", func(p *Proc) {
		defer func() { diedAt = p.Now() }()
		p.Sleep(time.Hour)
	})
	e.Go("killer", func(k *Proc) {
		k.Sleep(time.Millisecond)
		p.Kill()
	})
	e.Run()
	if diedAt != time.Millisecond {
		t.Fatalf("died at %v, want 1ms (not the 1h sleep expiry)", diedAt)
	}
}

func TestKillSelf(t *testing.T) {
	e := New(1)
	after := false
	var p *Proc
	p = e.Go("suicidal", func(pp *Proc) {
		pp.Kill()
		after = true // must not run
	})
	e.Run()
	if after {
		t.Fatal("code after self-kill ran")
	}
	if !p.Done() {
		t.Fatal("not done")
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	e := New(1)
	p := e.Go("quick", func(p *Proc) {})
	e.Run()
	p.Kill() // no-op, no panic
	p.Kill()
}

func TestKillDoubleIsNoop(t *testing.T) {
	e := New(1)
	p := e.Go("victim", func(p *Proc) { p.Park() })
	e.Go("killer", func(k *Proc) {
		p.Kill()
		p.Kill()
	})
	e.Run()
	if !p.Done() {
		t.Fatal("not done")
	}
}

func TestQueuePutSkipsKilledWaiter(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var gotByB int
	a := e.Go("a", func(p *Proc) {
		q.Get(p) // killed while waiting
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		v, ok := q.Get(p)
		if ok {
			gotByB = v
		}
	})
	e.Go("driver", func(p *Proc) {
		p.Sleep(time.Millisecond)
		a.Kill()
		p.Sleep(2 * time.Millisecond)
		q.Put(42) // must reach b, not the dead a
	})
	e.Run()
	if gotByB != 42 {
		t.Fatalf("b got %d", gotByB)
	}
}
