package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestScheduleSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	ran := false
	e.Schedule(-5*time.Second, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.Schedule(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop reported not-pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	e.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
	var zeroTimer Timer
	if zeroTimer.Stop() {
		t.Fatal("zero timer Stop reported pending")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var times []time.Duration
	e.Schedule(time.Millisecond, func() {
		times = append(times, e.Now())
		e.Schedule(time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wake time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*time.Millisecond {
		t.Fatalf("woke at %v", wake)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d", e.Live())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a0")
		p.Sleep(10 * time.Millisecond)
		got = append(got, "a1")
		p.Sleep(20 * time.Millisecond)
		got = append(got, "a2")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b0")
		p.Sleep(15 * time.Millisecond)
		got = append(got, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := New(1)
	var p1 *Proc
	order := []string{}
	p1 = e.Go("waiter", func(p *Proc) {
		order = append(order, "parking")
		p.Park()
		order = append(order, "resumed@"+p.Now().String())
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Second)
		p1.Unpark()
	})
	e.Run()
	if len(order) != 2 || order[1] != "resumed@1s" {
		t.Fatalf("order = %v", order)
	}
	if e.Parked() != 0 {
		t.Fatalf("parked = %d", e.Parked())
	}
}

func TestUnparkNotParkedIsNoop(t *testing.T) {
	e := New(1)
	p := e.Go("p", func(p *Proc) { p.Sleep(time.Millisecond) })
	p.Unpark() // not parked yet
	e.Run()
	if e.Live() != 0 {
		t.Fatal("proc did not finish")
	}
}

func TestParkedReportedAfterRun(t *testing.T) {
	e := New(1)
	e.Go("stuck", func(p *Proc) { p.Park() })
	e.Run()
	if e.Parked() != 1 {
		t.Fatalf("parked = %d, want 1", e.Parked())
	}
	e.Shutdown()
	if e.Parked() != 0 {
		t.Fatalf("parked after shutdown = %d", e.Parked())
	}
}

func TestShutdownRunsDeferredCleanup(t *testing.T) {
	e := New(1)
	cleaned := false
	e.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Park()
	})
	e.Run()
	e.Shutdown()
	if !cleaned {
		t.Fatal("defer did not run at shutdown kill")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("now = %v", e.Now())
	}
	e.RunFor(time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired after RunFor = %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New(1)
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestQueuePutGet(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("queue closed unexpectedly")
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Millisecond)
			q.Put(i * 10)
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueBufferedBeforeGet(t *testing.T) {
	e := New(1)
	q := NewQueue[string]()
	q.Put("x")
	q.Put("y")
	var got []string
	e.Go("c", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, _ := q.Get(p)
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var timedOut bool
	var at time.Duration
	e.Go("c", func(p *Proc) {
		_, _, timedOut = q.GetTimeout(p, 100*time.Millisecond)
		at = p.Now()
	})
	e.Run()
	if !timedOut {
		t.Fatal("did not time out")
	}
	if at != 100*time.Millisecond {
		t.Fatalf("timed out at %v", at)
	}
}

func TestQueueTimeoutCanceledByDelivery(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var v int
	var ok, timedOut bool
	e.Go("c", func(p *Proc) {
		v, ok, timedOut = q.GetTimeout(p, time.Second)
	})
	e.Go("p", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		q.Put(7)
	})
	e.Run()
	if !ok || timedOut || v != 7 {
		t.Fatalf("v=%d ok=%v timedOut=%v", v, ok, timedOut)
	}
	if e.Parked() != 0 {
		t.Fatal("leaked parked proc")
	}
}

func TestQueueClose(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var ok bool
	e.Go("c", func(p *Proc) {
		_, ok = q.Get(p)
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
	})
	e.Run()
	if ok {
		t.Fatal("Get returned ok after close")
	}
	if q.Put(1) {
		t.Fatal("Put on closed queue reported success")
	}
	if !q.closed {
		t.Fatal("Closed() false")
	}
	q.Close() // idempotent
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	e := New(1)
	q := NewQueue[int]()
	var got []int
	mk := func(id int) {
		e.Go("c", func(p *Proc) {
			v, ok := q.Get(p)
			if ok {
				got = append(got, id*100+v)
			}
		})
	}
	mk(1)
	mk(2)
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Put(1)
		q.Put(2)
	})
	e.Run()
	if len(got) != 2 || got[0] != 101 || got[1] != 202 {
		t.Fatalf("got %v (want first waiter gets first item)", got)
	}
}

func TestQueueTryGet(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(5)
	if v, ok := q.TryGet(); !ok || v != 5 {
		t.Fatalf("TryGet = %d, %v", v, ok)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float = %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn = %d", n)
		}
		if j := r.Jitter(time.Second); j < 0 || j >= time.Second {
			t.Fatalf("Jitter = %v", j)
		}
	}
	if r.Chance(0) || !r.Chance(1) {
		t.Fatal("Chance extremes wrong")
	}
	if r.Jitter(0) != 0 || r.Jitter(-time.Second) != 0 {
		t.Fatal("non-positive Jitter not zero")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := New(99)
		var out []time.Duration
		q := NewQueue[int]()
		e.Go("c", func(p *Proc) {
			for {
				_, ok := q.Get(p)
				if !ok {
					return
				}
				out = append(out, p.Now())
			}
		})
		e.Go("p", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(p.Engine().Rand().Jitter(10 * time.Millisecond))
				q.Put(i)
			}
			q.Close()
		})
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed runs diverged")
		}
	}
}

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	// Four context switches must land inside the paper's 17–20 ms band.
	rpc := 4 * cm.ContextSwitch
	if rpc < 17*time.Millisecond || rpc > 20*time.Millisecond {
		t.Fatalf("4 context switches = %v, outside 17–20 ms", rpc)
	}
	// Two signaling entities' logging plus switching work ≈ 330 ms.
	setup := 2*cm.CallLogging + 8*cm.ContextSwitch
	if setup < 300*time.Millisecond || setup > 360*time.Millisecond {
		t.Fatalf("modeled call setup = %v, not ≈330 ms", setup)
	}
}

// checkHeap verifies the schedule's invariants: every event knows its
// own position and no event sorts before its parent.
func checkHeap(e *Engine) bool {
	for i, ev := range e.events {
		if ev.index != i {
			return false
		}
		if i > 0 && ev.before(e.events[(i-1)/2]) {
			return false
		}
	}
	return true
}

// Property: for any set of delays, with timers stopped at random both
// before the run and from inside callbacks, the events that fire are
// exactly the ones a sort oracle predicts, in (time, schedule order)
// order; every Stop reports whether its event was still pending; the
// heap invariants hold after every push and remove; and the engine
// clock ends at the last fired event.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16, stops []uint16) bool {
		e := New(1)
		n := len(delays)
		type rec struct {
			at   time.Duration
			id   int
			live bool
		}
		oracle := make([]rec, n)
		timers := make([]Timer, n)
		var fired []int
		ok := true
		stop := func(id int) {
			if timers[id].Stop() != oracle[id].live || timers[id].Pending() {
				ok = false
			}
			oracle[id].live = false
			ok = ok && checkHeap(e)
		}
		for i, d := range delays {
			// Coarse delays, so equal times — where schedule order
			// decides — are common.
			at := time.Duration(d%64) * time.Microsecond
			oracle[i] = rec{at: at, id: i, live: true}
			timers[i] = e.Schedule(at, func() {
				fired = append(fired, i)
				oracle[i].live = false // fired: a later Stop must report false
				if d%3 == 0 {
					stop((i*7 + int(d)) % n)
				}
			})
			ok = ok && checkHeap(e)
		}
		for _, s := range stops {
			if n > 0 {
				stop(int(s) % n)
			}
		}
		// The oracle: repeatedly take the earliest live record, lowest
		// id (schedule order) first, replaying the same in-callback
		// stops.
		live := append([]rec(nil), oracle...)
		var want []int
		var last time.Duration
		for {
			best := -1
			for i, r := range live {
				if r.live && (best < 0 || r.at < live[best].at) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			live[best].live = false
			want = append(want, best)
			last = live[best].at
			if delays[best]%3 == 0 {
				live[(best*7+int(delays[best]))%n].live = false
			}
		}
		e.Run()
		if !ok || len(fired) != len(want) || e.Pending() != 0 || e.Now() != last {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue delivers every put item exactly once, in order.
func TestQuickQueueFIFO(t *testing.T) {
	f := func(items []int32) bool {
		e := New(1)
		q := NewQueue[int32]()
		var got []int32
		e.Go("c", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		e.Go("p", func(p *Proc) {
			for _, v := range items {
				q.Put(v)
				if v%3 == 0 {
					p.Sleep(time.Microsecond)
				}
			}
			q.Close()
		})
		e.Run()
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
