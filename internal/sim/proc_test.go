package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The golden logs below were recorded on the goroutine-plus-channels
// Proc (the commit before the coroutine engine) and must never change:
// a proc switch is an execution detail, the event order is the science.

// procLog collects "t=<virtual time> <what>" lines from one scenario.
type procLog struct {
	e *Engine
	b strings.Builder
}

func (l *procLog) add(format string, args ...any) {
	fmt.Fprintf(&l.b, "t=%v ", l.e.Now())
	fmt.Fprintf(&l.b, format, args...)
	l.b.WriteByte('\n')
}

func runProcScenario(t *testing.T, want string, build func(e *Engine, l *procLog)) {
	t.Helper()
	e := New(7)
	l := &procLog{e: e}
	build(e, l)
	e.Run()
	l.add("drained live=%d parked=%d", e.Live(), e.Parked())
	e.Shutdown()
	l.add("shutdown live=%d parked=%d", e.Live(), e.Parked())
	if got := l.b.String(); got != want {
		t.Fatalf("event order diverges from the recorded golden\n--- got\n%s--- want\n%s", got, want)
	}
}

// bystander logs around a sleep so a scenario shows where a kill's
// unwinding lands relative to work already queued at the same instant.
func bystander(e *Engine, l *procLog, name string, d time.Duration) {
	e.Go(name, func(p *Proc) {
		l.add("%s start", name)
		p.Sleep(d)
		l.add("%s woke", name)
	})
}

func TestKillGoldenParked(t *testing.T) {
	const want = `t=0s victim parking
t=0s by start
t=1ms killer kills
t=1ms killer after kill done=false
t=1ms by woke
t=1ms event queued before the kill
t=1ms victim unwound
t=2ms killer sees done=true
t=2ms drained live=0 parked=0
t=2ms shutdown live=0 parked=0
`
	runProcScenario(t, want, func(e *Engine, l *procLog) {
		v := e.Go("victim", func(p *Proc) {
			defer l.add("victim unwound")
			l.add("victim parking")
			p.Park()
			l.add("victim resumed (must not happen)")
		})
		e.Go("killer", func(p *Proc) {
			p.Sleep(time.Millisecond)
			e.Schedule(0, func() { l.add("event queued before the kill") })
			l.add("killer kills")
			v.Kill()
			l.add("killer after kill done=%v", v.Done())
			p.Sleep(time.Millisecond)
			l.add("killer sees done=%v", v.Done())
		})
		bystander(e, l, "by", time.Millisecond)
	})
}

func TestKillGoldenSleeping(t *testing.T) {
	const want = `t=0s victim sleeping
t=0s by start
t=1ms killer kills
t=1ms killer after kill done=false
t=1ms by woke
t=1ms victim unwound
t=1ms drained live=0 parked=0
t=1ms shutdown live=0 parked=0
`
	runProcScenario(t, want, func(e *Engine, l *procLog) {
		v := e.Go("victim", func(p *Proc) {
			defer l.add("victim unwound")
			l.add("victim sleeping")
			p.Sleep(time.Hour)
			l.add("victim woke (must not happen)")
		})
		e.Go("killer", func(p *Proc) {
			p.Sleep(time.Millisecond)
			l.add("killer kills")
			v.Kill()
			l.add("killer after kill done=%v", v.Done())
		})
		bystander(e, l, "by", time.Millisecond)
	})
}

// A proc killed between Go and its first dispatch still starts its body
// (the kill flag is observed at the first resume after a yield), and a
// proc killed between Unpark and its dispatch dies at that dispatch.
func TestKillGoldenQueued(t *testing.T) {
	const want = `t=0s spawner spawned and killed fresh
t=0s parker parking
t=0s fresh body starts
t=1ms waker unparks then kills parker
t=1ms waker done
t=1ms parker unwound
t=2ms fresh unwound
t=2ms drained live=0 parked=0
t=2ms shutdown live=0 parked=0
`
	runProcScenario(t, want, func(e *Engine, l *procLog) {
		e.Go("spawner", func(p *Proc) {
			fresh := e.Go("fresh", func(p *Proc) {
				defer l.add("fresh unwound")
				l.add("fresh body starts")
				p.Sleep(2 * time.Millisecond)
				l.add("fresh woke (must not happen)")
			})
			fresh.Kill()
			l.add("spawner spawned and killed fresh")
		})
		parker := e.Go("parker", func(p *Proc) {
			defer l.add("parker unwound")
			l.add("parker parking")
			p.Park()
			l.add("parker resumed (must not happen)")
		})
		e.Go("waker", func(p *Proc) {
			p.Sleep(time.Millisecond)
			l.add("waker unparks then kills parker")
			parker.Unpark()
			parker.Kill()
			l.add("waker done")
		})
	})
}

func TestKillGoldenSelfAndFinished(t *testing.T) {
	const want = `t=0s self before
t=0s self unwound
t=0s quick ran
t=1ms late kill of finished: done=true
t=1ms late kill of self-killed: done=true
t=1ms drained live=0 parked=0
t=1ms shutdown live=0 parked=0
`
	runProcScenario(t, want, func(e *Engine, l *procLog) {
		self := e.Go("self", func(p *Proc) {
			defer l.add("self unwound")
			l.add("self before")
			p.Kill()
			l.add("self after (must not happen)")
		})
		quick := e.Go("quick", func(p *Proc) { l.add("quick ran") })
		e.Schedule(time.Millisecond, func() {
			quick.Kill()
			quick.Kill()
			l.add("late kill of finished: done=%v", quick.Done())
			self.Kill()
			l.add("late kill of self-killed: done=%v", self.Done())
		})
	})
}

// Unparks are dispatch events: woken procs resume in unpark order after
// everything already queued at that instant, whether the unpark came
// from a proc, from an event callback, or from a proc that a callback's
// unpark had itself just woken.
func TestUnparkOrderGolden(t *testing.T) {
	const want = `t=0s a parking
t=0s b parking
t=0s c parking
t=1ms waker unparks b, a
t=1ms waker yields
t=1ms event queued before the unparks
t=1ms b resumed
t=1ms b unparks c
t=1ms a resumed
t=1ms waker back
t=1ms c resumed
t=2ms callback unparks a then b
t=2ms a resumed again
t=2ms b resumed again
t=2ms drained live=0 parked=0
t=2ms shutdown live=0 parked=0
`
	runProcScenario(t, want, func(e *Engine, l *procLog) {
		var a, b, c *Proc
		a = e.Go("a", func(p *Proc) {
			l.add("a parking")
			p.Park()
			l.add("a resumed")
			p.Park()
			l.add("a resumed again")
		})
		b = e.Go("b", func(p *Proc) {
			l.add("b parking")
			p.Park()
			l.add("b resumed")
			l.add("b unparks c")
			c.Unpark()
			p.Park()
			l.add("b resumed again")
		})
		c = e.Go("c", func(p *Proc) {
			l.add("c parking")
			p.Park()
			l.add("c resumed")
		})
		e.Go("waker", func(p *Proc) {
			p.Sleep(time.Millisecond)
			e.Schedule(0, func() { l.add("event queued before the unparks") })
			l.add("waker unparks b, a")
			b.Unpark()
			a.Unpark()
			a.Unpark() // second unpark of a runnable proc is a no-op
			l.add("waker yields")
			p.Sleep(0)
			l.add("waker back")
		})
		e.Schedule(2*time.Millisecond, func() {
			l.add("callback unparks a then b")
			a.Unpark()
			b.Unpark()
		})
	})
}

// Shutdown kills in spawn order, so deferred exit hooks (socket closes,
// obs events) run in the same order every run; procs spawned by a dying
// proc's hook are killed too.
func TestShutdownKillOrderDeterministic(t *testing.T) {
	run := func() string {
		e := New(3)
		var order []string
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("p%02d", i)
			e.Go(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				switch i % 3 {
				case 0:
					p.Park()
				case 1:
					p.Sleep(time.Hour)
				default:
					if i == 11 {
						defer e.Go("late", func(p *Proc) {
							defer func() { order = append(order, "late") }()
							p.Park()
						})
					}
					p.Sleep(time.Duration(i) * time.Millisecond)
					p.Park()
				}
			})
		}
		e.RunUntil(20 * time.Millisecond)
		// Never run: spawned after the last RunUntil.
		e.Go("unborn", func(p *Proc) {
			defer func() { order = append(order, "unborn") }()
			p.Park()
		})
		e.Shutdown()
		if e.Live() != 0 || e.Parked() != 0 {
			t.Fatalf("after Shutdown live=%d parked=%d", e.Live(), e.Parked())
		}
		return strings.Join(order, " ")
	}
	var want []string
	for i := 0; i < 40; i++ {
		want = append(want, fmt.Sprintf("p%02d", i))
	}
	want = append(want, "unborn", "late")
	ref := run()
	if ref != strings.Join(want, " ") {
		t.Fatalf("Shutdown did not kill in spawn order:\n got %s\nwant %s", ref, strings.Join(want, " "))
	}
	for i := 0; i < 20; i++ {
		if got := run(); got != ref {
			t.Fatalf("run %d: exit-hook order changed\n got %s\nwant %s", i, got, ref)
		}
	}
}

// panicValue runs f and returns what it panicked with, nil if it
// returned.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// A panic in a proc body must reach whoever is driving the engine, on
// that goroutine, naming the proc — not kill the binary from an
// anonymous goroutine where no test or daemon can see it.
func TestProcPanicSurfacesInRun(t *testing.T) {
	check := func(t *testing.T, v any) {
		t.Helper()
		msg := fmt.Sprint(v)
		if v == nil || !strings.Contains(msg, `"faulty"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("proc panic did not surface with the proc's name and value: %v", v)
		}
	}
	body := func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	}
	t.Run("flat/Run", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		e.Go("faulty", body)
		check(t, panicValue(e.Run))
	})
	t.Run("flat/RunUntil", func(t *testing.T) {
		e := New(1)
		defer e.Shutdown()
		e.Go("bystander", func(p *Proc) { p.Park() })
		e.Go("faulty", body)
		check(t, panicValue(func() { e.RunUntil(time.Second) }))
	})
	t.Run("sharded/workers=2", func(t *testing.T) {
		g := NewShardGroup(1, 4, time.Millisecond)
		defer g.Close()
		g.SetWorkers(2)
		for i := 0; i < 4; i++ {
			g.Shard(i).Go("bystander", func(p *Proc) {
				for {
					p.Sleep(100 * time.Microsecond)
				}
			})
		}
		// On the last shard: with two claimants it runs on whichever of
		// coordinator and helper gets there, and must surface on the
		// coordinator either way.
		g.Shard(3).Go("faulty", body)
		check(t, panicValue(func() { g.RunUntil(time.Second) }))
	})
}

// waitGoroutines polls until the goroutine count is back to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%s: %d goroutines, baseline %d", what, n, base)
	}
}

// Shutdown must release idle pooled coroutines as well as live procs.
func TestShutdownReleasesPooledCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	for i := 0; i < 16; i++ {
		e.Go("short", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	e.Go("parker", func(p *Proc) { p.Park() })
	e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	e.RunUntil(10 * time.Millisecond)
	if e.Live() != 2 {
		t.Fatalf("live = %d, want 2", e.Live())
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("expected live and pooled coroutines before Shutdown")
	}
	e.Shutdown()
	waitGoroutines(t, base, "after Shutdown")

	// The engine stays usable: a later spawn builds a fresh coroutine,
	// and Close releases it again.
	ran := false
	e.Go("again", func(p *Proc) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("proc spawned after Shutdown did not run")
	}
	e.Close()
	waitGoroutines(t, base, "after Close")
}

// TestProcSpawnSteadyStateAllocs gates what Engine.Go costs once the
// coroutine pool is warm: the Proc, and nothing else — its dispatch
// events carry the Proc itself (resumeAfter) where they used to need a
// bound closure. (The goroutine-per-proc engine paid 6 here.)
func TestProcSpawnSteadyStateAllocs(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	spawn := func() {
		for i := 0; i < 8; i++ {
			e.Go("worker", body)
		}
		e.Run()
	}
	spawn() // warm the coroutine and event pools
	if avg := testing.AllocsPerRun(100, spawn) / 8; avg > 1 {
		t.Fatalf("warm Engine.Go + exit allocates %.2f times per proc, want <= 1", avg)
	}
}
