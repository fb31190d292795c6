package sim

import (
	"testing"
	"time"
)

// A blocking get on a warm queue allocates nothing, whichever way the
// wait ends: the waiter is the queue's inline record and its timeout is
// carried by the event, not a closure.
func TestGetTimeoutSteadyStateAllocs(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewQueue[int]()
	gets, timeouts := 0, 0
	e.Go("consumer", func(p *Proc) {
		for {
			_, ok, timedOut := q.GetTimeout(p, time.Millisecond)
			switch {
			case ok:
				gets++
			case timedOut:
				timeouts++
			default:
				return
			}
		}
	})
	itemFirst := func() {
		for i := 0; i < 8; i++ {
			e.RunFor(100 * time.Microsecond)
			q.Put(i)
		}
		e.RunFor(100 * time.Microsecond)
	}
	timerFirst := func() { e.RunFor(8 * time.Millisecond) }
	itemFirst()
	timerFirst()
	gets, timeouts = 0, 0
	if avg := testing.AllocsPerRun(100, itemFirst); avg != 0 {
		t.Errorf("a warm bounded get served by Put allocates %.2f times per 8, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, timerFirst); avg != 0 {
		t.Errorf("a warm bounded get that times out allocates %.2f times per 8, want 0", avg)
	}
	if gets < 800 || timeouts < 800 {
		t.Fatalf("consumer saw %d items and %d timeouts; both paths must have run", gets, timeouts)
	}
}

// Consumers waiting behind the first use records recycled per queue.
func TestOverflowWaitersRecycled(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewQueue[int]()
	got := 0
	for i := 0; i < 4; i++ {
		e.Go("consumer", func(p *Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
				got++
			}
		})
	}
	round := func() {
		for i := 0; i < 4; i++ {
			q.Put(i)
		}
		e.Run()
	}
	e.Run()
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("four consumers on a warm queue allocate %.2f times per round, want 0", avg)
	}
	if got != 4*102 {
		t.Fatalf("delivered %d items, want %d", got, 4*102)
	}
	if n := q.Waiting(); n != 3 {
		t.Fatalf("%d waiter records out with four consumers parked, want 3", n)
	}
}

// A proc killed while parked in GetTimeout leaves its waiter claimed and
// its timer pending. The record must never serve another consumer: when
// the stale timer fires it would otherwise time out a get that has
// nothing to do with it. It leaves the queue's count when Put passes it.
func TestKilledWaiterIsNeverRecycled(t *testing.T) {
	for _, behind := range []int{0, 2} { // victim in the inline record; in an overflow record
		e := New(1)
		q := NewQueue[int]()
		var others []*Proc
		for i := 0; i < behind; i++ {
			others = append(others, e.Go("ahead", func(p *Proc) { q.Get(p) }))
		}
		victim := e.Go("victim", func(p *Proc) { q.GetTimeout(p, 50*time.Millisecond) })
		e.RunFor(time.Millisecond)
		victim.Kill()
		for _, p := range others {
			p.Kill()
		}
		e.RunFor(time.Millisecond)
		if !victim.Done() {
			t.Fatal("victim survived Kill")
		}
		// 1 000 further gets, each served after 100 µs, straddling the
		// instant the victim's timer fires. None may time out (their own
		// bound is a second) or see a value other than its own.
		bad := 0
		e.Go("consumer", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				v, ok, timedOut := q.GetTimeout(p, time.Second)
				if !ok || timedOut || v != i {
					bad++
				}
			}
		})
		e.Go("producer", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(100 * time.Microsecond)
				q.Put(i)
			}
		})
		e.RunFor(time.Second)
		if bad != 0 {
			t.Fatalf("behind=%d: %d of 1000 gets after the kill were disturbed", behind, bad)
		}
		if e.Live() != 0 {
			t.Fatalf("behind=%d: %d procs still live", behind, e.Live())
		}
		// The dead waiters' records were dropped as Put passed them, and
		// every get after the kill returned its own.
		if n := q.Waiting(); n != 0 {
			t.Fatalf("behind=%d: %d waiter records out at the end, want 0", behind, n)
		}
		e.Shutdown()
	}
}

// A timed-out consumer behind others leaves the wait list when it wakes;
// until then Put passes over it rather than handing it an item.
func TestTimedOutWaiterIsPassedOver(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewQueue[string]()
	var first, second, third string
	var secondTimedOut bool
	e.Go("first", func(p *Proc) { first, _ = q.Get(p) })
	e.Go("second", func(p *Proc) { second, _, secondTimedOut = q.GetTimeout(p, time.Millisecond) })
	e.Go("third", func(p *Proc) { third, _ = q.Get(p) })
	e.RunFor(500 * time.Microsecond)
	// At the instant second's timer fires, before second itself runs.
	e.Schedule(500*time.Microsecond, func() {
		q.Put("a")
		q.Put("b")
	})
	e.Run()
	if first != "a" || third != "b" || second != "" || !secondTimedOut {
		t.Fatalf("first=%q second=%q (timedOut=%v) third=%q", first, second, secondTimedOut, third)
	}
	if q.waiters.Len() != 0 {
		t.Fatalf("%d waiters still listed", q.waiters.Len())
	}
}
