package sim

import (
	"slices"
	"testing"
	"time"
)

const minIndex = 16 // a fresh ring's slots

// TestIndexGrowsOnLiveCollision fills a ring, so that the next key
// lands on a live slot and doubles it, and checks every key still reads
// its value.
func TestIndexGrowsOnLiveCollision(t *testing.T) {
	var x Index[int]
	for k := uint64(1); k <= minIndex; k++ {
		x.Put(k, int(k))
	}
	if len(x.slots) != minIndex {
		t.Fatalf("%d ascending keys took %d slots", minIndex, len(x.slots))
	}
	x.Put(1+minIndex, 99) // key 1's slot
	if len(x.slots) != 2*minIndex || x.far != nil {
		t.Fatalf("a live collision left %d slots, overflow %v", len(x.slots), x.far)
	}
	for k := uint64(1); k <= minIndex; k++ {
		if v, ok := x.Get(k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	if v, ok := x.Get(1 + minIndex); !ok || v != 99 || x.Len() != minIndex+1 {
		t.Fatalf("Get(new) = %d, %v; Len %d", v, ok, x.Len())
	}
	if _, ok := x.Get(1 + 2*minIndex); ok {
		t.Fatal("a key sharing key 1's slot reads present")
	}
}

// TestIndexMovesStraggler: one old entry and a run of new keys far past
// it keep a small ring; the old entry moves to the overflow and stays
// readable, replaceable and deletable.
func TestIndexMovesStraggler(t *testing.T) {
	var x Index[string]
	x.Put(3, "old")
	for k := uint64(1000); k < 1200; k++ {
		x.Put(k, "new")
		x.Delete(k - 2) // two live at a time
	}
	if len(x.slots) != minIndex {
		t.Fatalf("ring grew to %d slots for three live keys", len(x.slots))
	}
	if v, ok := x.Get(3); !ok || v != "old" || x.Len() != 3 {
		t.Fatalf("straggler reads %q, %v; Len %d", v, ok, x.Len())
	}
	x.Put(3, "kept")
	if v, _ := x.Get(3); v != "kept" || x.Len() != 3 {
		t.Fatalf("replacing the straggler read %q, Len %d", v, x.Len())
	}
	if v, ok := x.Delete(3); !ok || v != "kept" || x.Len() != 2 {
		t.Fatalf("Delete(straggler) = %q, %v; Len %d", v, ok, x.Len())
	}
	var keys []uint64
	for k := range x.All() {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []uint64{1198, 1199}) {
		t.Fatalf("All yields %v", keys)
	}
}

// TestWindowGapAndReset delivers around a gap: numbers above it are
// recorded without moving the floor, the one that closes it carries the
// floor past them all, and a new window starts empty.
func TestWindowGapAndReset(t *testing.T) {
	const life = time.Second
	var w Window
	for _, s := range []uint32{1, 2, 4, 5, 70} {
		if !w.Add(s, 0, life) {
			t.Fatalf("Add(%d) on first delivery = false", s)
		}
	}
	if w.floor != 2 {
		t.Fatalf("floor %d below the gap at 3, want 2", w.floor)
	}
	for _, s := range []uint32{1, 2, 4, 70} {
		if w.Add(s, 0, life) {
			t.Fatalf("Add(%d) again = true", s)
		}
	}
	if !w.Add(3, 0, life) || w.floor != 5 || w.above.Len() != 1 {
		t.Fatalf("closing the gap left the floor at %d, want 5, and %d above it", w.floor, w.above.Len())
	}
	w = Window{}
	if !w.Add(1, 0, life) || !w.Add(3, 0, life) || w.floor != 1 {
		t.Fatalf("a new window: floor %d, want 1", w.floor)
	}
}

// TestWindowKeepsGapForLife: a gap stays open while its number can
// still arrive, however many numbers pass meanwhile, and is given up
// once it cannot, with every number up to the highest delivered when
// the floor stalled; then the next gap's clock starts.
func TestWindowKeepsGapForLife(t *testing.T) {
	const life, n = 16 * time.Second, 50000
	var w Window
	w.Add(1, 0, life)
	for s := uint32(3); s <= n; s++ { // 2 is lost, then retransmitted
		if !w.Add(s, time.Duration(s)*life/n/2, life) {
			t.Fatalf("Add(%d) = false", s)
		}
	}
	if w.floor != 1 || w.mark != 3 || w.above.Len() != n-2 {
		t.Fatalf("floor %d, mark %d, %d above; want 1, 3 and %d", w.floor, w.mark, w.above.Len(), n-2)
	}
	if !w.Add(2, life-1, life) || w.floor != n || w.above.Len() != 0 || w.Add(n, life, life) {
		t.Fatalf("the retransmission inside its life: floor %d, %d above", w.floor, w.above.Len())
	}
	w.Add(n+3, life, life) // n+1 and n+2 never arrive
	w.Add(n+5, life+1, life)
	if w.floor != n || w.mark != n+3 || w.Add(n+3, 2*life-1, life) {
		t.Fatalf("floor %d, mark %d; want %d and %d", w.floor, w.mark, n, n+3)
	}
	if !w.Add(n+6, 2*life, life) || w.floor != n+3 || w.mark != n+6 || w.Add(n+1, 2*life, life) || !w.Add(n+4, 2*life, life) || w.floor != n+6 {
		t.Fatalf("a life after the stall: floor %d, mark %d; want %d, %d, then %d", w.floor, w.mark, n+3, n+6, n+6)
	}
}
