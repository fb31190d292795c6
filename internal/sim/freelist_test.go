package sim

import (
	"fmt"
	"testing"
)

type rec struct{ bound int }

// Get hands back the record Put last, as it was left: the list neither
// zeroes what it recycles nor reorders it.
func TestFreeListLIFO(t *testing.T) {
	var l FreeList[rec]
	a, b, c := l.Get(), l.Get(), l.Get()
	if a == b || b == c || a == c {
		t.Fatal("an empty list handed out one record twice")
	}
	a.bound, b.bound, c.bound = 1, 2, 3
	l.Put(a)
	l.Put(b)
	l.Put(c)
	for _, want := range []*rec{c, b, a} {
		if got := l.Get(); got != want || got.bound != want.bound {
			t.Fatalf("Get = %p (bound %d), want %p (bound %d)", got, got.bound, want, want.bound)
		}
	}
	if got := l.Get(); got == a || got == b || got == c || got.bound != 0 {
		t.Fatalf("a drained list handed out %+v, want a new zero record", got)
	}
	if all, made := l.Draws(); all != 7 || made != 4 {
		t.Fatalf("Draws = %d, %d; want 7 draws, 4 made", all, made)
	}
}

// Outstanding counts what the owner holds: up on every Get, recycled or
// made, down on every Put and Drop, and a dropped record never returns.
func TestFreeListOutstanding(t *testing.T) {
	var l FreeList[rec]
	step := func(what string, want int) {
		t.Helper()
		if got := l.Outstanding(); got != want {
			t.Fatalf("after %s: Outstanding = %d, want %d", what, got, want)
		}
	}
	step("nothing", 0)
	a, b := l.Get(), l.Get()
	step("two made", 2)
	l.Put(a)
	step("a Put", 1)
	l.Drop(b)
	step("b Dropped", 0)
	if got := l.Get(); got != a {
		t.Fatalf("Get = %p, want the Put record %p", got, a)
	}
	step("a recycled", 1)
	if got := l.Get(); got == b {
		t.Fatal("a dropped record came back")
	}
	step("one more made", 2)
}

// Under the race detector a record returned while it is already on the
// list panics, whether by a second Put or by a Drop after a Put.
func TestFreeListDoublePutPanics(t *testing.T) {
	if !raceEnabled {
		t.Skip("the double-return check runs only under the race detector")
	}
	for name, second := range map[string]func(*FreeList[rec], *rec){
		"Put":  (*FreeList[rec]).Put,
		"Drop": (*FreeList[rec]).Drop,
	} {
		var l FreeList[rec]
		r := l.Get()
		l.Put(r)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			second(&l, r)
			return "no panic"
		}()
		if msg != "sim: record returned to a free list twice" {
			t.Errorf("Put then %s of one record: got %q, want the double-return panic", name, msg)
		}
	}
}
