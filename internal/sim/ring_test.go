package sim

import (
	"slices"
	"testing"
	"time"
)

func TestRingFIFOAndGrowth(t *testing.T) {
	var r Ring[int]
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			r.Push(i)
		}
		for i := 0; i < 100; i++ {
			if got := r.Pop(); got != i {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, i)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("round %d: len = %d", round, r.Len())
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	var r Ring[int]
	// Force head to rotate through the backing array repeatedly.
	for i := 0; i < 1000; i++ {
		r.Push(i)
		r.Push(i + 1000)
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
		if got := r.Pop(); got != i+1000 {
			t.Fatalf("Pop = %d, want %d", got, i+1000)
		}
	}
}

// TestRingInPlaceSlots drives the slot accessors across growth and the
// wrap point: an element built through PushSlot is the one Head sees,
// Tail is the element pushed last,
// Drop vacates exactly it, and the accessors interleave with Push/Pop.
func TestRingInPlaceSlots(t *testing.T) {
	type big struct {
		id  int
		pad [10]int
	}
	var r Ring[big]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 1+round%7; i++ {
			s := r.PushSlot()
			if s.id != 0 || s.pad != [10]int{} {
				t.Fatalf("PushSlot handed out a dirty slot: %+v", *s)
			}
			s.id, s.pad[9] = next, next
			next++
		}
		r.Push(big{id: next})
		if tl := r.Tail(); tl.id != next || r.At(r.Len()-1).id != next {
			t.Fatalf("Tail = %d, want the element just pushed, %d", tl.id, next)
		}
		next++
		for i := 0; i < 1+round%5 && r.Len() > 0; i++ {
			h := r.Head()
			if h.id != want {
				t.Fatalf("Head = %d, want %d", h.id, want)
			}
			h.id = -1 // in-place writes land in the ring
			if got := r.At(0).id; got != -1 {
				t.Fatalf("write through Head not visible: At(0) = %d", got)
			}
			r.Drop()
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop().id; got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("consumed %d of %d", want, next)
	}
	for _, f := range []func(){func() { r.Head() }, func() { r.Tail() }, func() { r.Drop() }, func() { r.Pop() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("empty ring access did not panic")
				}
			}()
			f()
		}()
	}
}

// TestRingZeroesVacatedSlots is the backing-array retention regression:
// every removal path must clear its slot so consumed pointers are not
// pinned by the ring.
func TestRingZeroesVacatedSlots(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	r.Push(v)
	r.Pop()
	*r.PushSlot() = v
	r.Drop()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a reference after removal", i)
		}
	}
}

// TestQueueDropsConsumedReferences asserts a drained Queue retains no
// references to the items that passed through it, in its ring or in its
// reader's slot — the slice-head re-slicing leak a ring removed.
func TestQueueDropsConsumedReferences(t *testing.T) {
	e := New(1)
	q := NewQueue[*int]()
	for i := 0; i < 64; i++ {
		q.Put(new(int))
	}
	for {
		if _, ok := q.TryGet(); !ok {
			break
		}
	}
	for i, p := range q.items.buf {
		if p != nil {
			t.Fatalf("drained queue still pins item in slot %d", i)
		}
	}

	// The reader's slot must drop its references too: hand a waiting
	// reader an item, and time one out, then check the slot is clear.
	e.Go("reader", func(p *Proc) {
		if v, ok := q.Get(p); !ok || v == nil {
			t.Errorf("Get: %v, %v", v, ok)
		}
		if _, ok, timedOut := q.GetTimeout(p, time.Millisecond); ok || !timedOut {
			t.Errorf("GetTimeout: ok=%v timedOut=%v", ok, timedOut)
		}
	})
	e.Schedule(time.Microsecond, func() { q.Put(new(int)) })
	e.Run()
	if q.w != (qwaiter[*int]{}) {
		t.Fatalf("queue still holds its reader's slot: %+v", q.w)
	}
	e.Shutdown()
}

// TestPendingExact asserts Pending counts only live events: a stopped
// timer leaves the heap immediately instead of lingering as a canceled
// placeholder.
func TestPendingExact(t *testing.T) {
	e := New(1)
	t1 := e.Schedule(time.Second, func() {})
	t2 := e.Schedule(2*time.Second, func() {})
	t3 := e.Schedule(3*time.Second, func() {})
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	if !t2.Stop() {
		t.Fatal("t2.Stop reported not-pending")
	}
	if e.Pending() != 2 {
		t.Fatalf("pending after Stop = %d, want 2", e.Pending())
	}
	if t2.Pending() {
		t.Fatal("stopped timer still Pending")
	}
	if !t1.Pending() || !t3.Pending() {
		t.Fatal("live timers not Pending")
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending after Run = %d, want 0", e.Pending())
	}
	if t1.Pending() || t3.Pending() {
		t.Fatal("fired timers still Pending")
	}
}

// TestTimerStaleHandleAfterReuse asserts a Timer held past its event's
// execution stays inert even after the pooled event struct is recycled
// for a different callback.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	e := New(1)
	fired := 0
	old := e.Schedule(time.Millisecond, func() { fired++ })
	e.Run()
	// The event struct is now on the free list; reuse it.
	fresh := e.Schedule(time.Millisecond, func() { fired += 10 })
	if old.Stop() {
		t.Fatal("stale handle stopped a recycled event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer lost its event to a stale Stop")
	}
	e.Run()
	if fired != 11 {
		t.Fatalf("fired = %d, want 11", fired)
	}
}

// TestRingKeepAndLast bounds a history: Keep drops the head once the
// ring holds max, a RingOn ring of max slots never leaves its array,
// and Last reads the newest n oldest first.
func TestRingKeepAndLast(t *testing.T) {
	var arr [4]int
	r := RingOn(arr[:])
	if r.Last(3) != nil {
		t.Fatal("Last on an empty ring is not nil")
	}
	for i := 0; i < 10; i++ {
		if dropped := r.Keep(i, len(arr)); dropped != (i >= len(arr)) {
			t.Fatalf("Keep(%d) dropped = %v", i, dropped)
		}
	}
	if &r.buf[0] != &arr[0] {
		t.Fatal("a full bounded ring left its array")
	}
	for _, c := range []struct {
		n    int
		want []int
	}{{0, nil}, {1, []int{9}}, {3, []int{7, 8, 9}}, {100, []int{6, 7, 8, 9}}} {
		if got := r.Last(c.n); !slices.Equal(got, c.want) {
			t.Fatalf("Last(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Keep(1, len(arr)) }); allocs != 0 {
		t.Fatalf("Keep on a full RingOn ring allocates %.0f times", allocs)
	}
}
