package sim

import (
	"fmt"
	"strings"
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

// A reader killed while parked in GetTimeout unwinds past its release,
// leaving the slot claimed and its timer pending. The next get reclaims
// the slot and stops that timer: when it would have fired, it must not
// time out a get that has nothing to do with it.
func TestKilledReaderTimerNeverFires(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewQueue[int]()
	victim := e.Go("victim", func(p *Proc) { q.GetTimeout(p, 50*time.Millisecond) })
	e.RunFor(time.Millisecond)
	victim.Kill()
	e.RunFor(time.Millisecond)
	if !victim.Done() {
		t.Fatal("victim survived Kill")
	}
	// 1 000 further gets, each served after 100 µs, straddling the
	// instant the victim's timer would fire. None may time out (their
	// own bound is a second) or see a value other than its own.
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
		t.Fatalf("%d of 1000 gets after the kill were disturbed", bad)
	}
	if e.Live() != 0 {
		t.Fatalf("%d procs still live", e.Live())
	}
}

// A queue has one reader: a second process that parks on it while the
// first still waits panics, and the first is not disturbed.
func TestQueueSecondWaiterPanics(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewQueue[int]()
	var got int
	e.Go("first", func(p *Proc) { got, _ = q.Get(p) })
	e.Go("second", func(p *Proc) { q.Get(p) })
	if v := panicValue(e.Run); !strings.Contains(fmt.Sprint(v), "a second process waits on a queue") {
		t.Fatalf("second waiter: recovered %v, want the second-waiter panic", v)
	}
	q.Put(7)
	e.Run()
	if got != 7 {
		t.Fatalf("first waiter got %d, want 7", got)
	}
}
