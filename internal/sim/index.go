package sim

import (
	"iter"
	"time"
)

// Index maps identifiers that ascend as they are issued (call IDs,
// sequence numbers, PIDs, ephemeral ports) to values without hashing:
// key k lives in slot k mod the ring's power-of-two size, checked
// against its full key. A key landing on a live slot doubles the ring
// while a quarter or more of it is live; in a sparser ring the slot's
// entry is a straggler, far older than the rest, and moves to an
// overflow map that only a lookup missing the ring reads. So the ring
// stays bounded by the entries live at once. The zero value is empty;
// an index has one owner and no lock.
type Index[V any] struct {
	slots []slot[V]
	n     int // live slots
	far   map[uint64]V
}

type slot[V any] struct {
	key  uint64
	val  V
	live bool
}

func (x *Index[V]) slot(k uint64) *slot[V] {
	if len(x.slots) == 0 {
		return nil
	}
	return &x.slots[k&uint64(len(x.slots)-1)]
}

// Get returns k's value and whether k is present.
func (x *Index[V]) Get(k uint64) (v V, ok bool) {
	if s := x.slot(k); s != nil && s.live && s.key == k {
		return s.val, true
	}
	if len(x.far) > 0 {
		v, ok = x.far[k]
	}
	return v, ok
}

// Put stores v under k.
func (x *Index[V]) Put(k uint64, v V) {
	if len(x.slots) == 0 {
		x.slots = make([]slot[V], 16)
	}
	s := x.slot(k)
	for ; s.live && s.key != k; s = x.slot(k) {
		if 4*x.n >= len(x.slots) { // keys in distinct slots stay apart
			old := x.slots
			x.slots = make([]slot[V], 2*len(old))
			for _, o := range old {
				if o.live {
					*x.slot(o.key) = o
				}
			}
			continue
		}
		if x.far == nil {
			x.far = make(map[uint64]V)
		}
		x.far[s.key] = s.val
		*s = slot[V]{}
		x.n--
	}
	if !s.live {
		if _, ok := x.far[k]; ok {
			x.far[k] = v
			return
		}
		x.n++
	}
	*s = slot[V]{key: k, val: v, live: true}
}

// Delete removes k and returns its value, if present.
func (x *Index[V]) Delete(k uint64) (v V, ok bool) {
	if s := x.slot(k); s != nil && s.live && s.key == k {
		v, *s = s.val, slot[V]{}
		x.n--
		return v, true
	}
	v, ok = x.far[k]
	delete(x.far, k)
	return v, ok
}

// Len reports the entries present.
func (x *Index[V]) Len() int { return x.n + len(x.far) }

// All yields every entry, the ring's in slot order, then the overflow's
// in no fixed order: a walk whose effects depend on order sorts.
func (x *Index[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for _, s := range x.slots {
			if s.live && !yield(s.key, s.val) {
				return
			}
		}
		for k, v := range x.far {
			if !yield(k, v) {
				return
			}
		}
	}
}

// Window is the set of sequence numbers delivered so far, when every
// one up to floor was: those above it sit in an Index, and the floor
// moves up as the gap below a delivered number closes. A gap whose
// message is gone for good (its sender spent its retries, or dropped it
// with its call) is given up once no retransmission of it can still
// arrive: mark is the highest number delivered when the floor last
// stalled, at markAt, and a sender numbers its messages in the order it
// first sends them, so every number up to mark was first sent by then.
// The zero value holds none.
type Window struct {
	floor, top, mark uint32
	markAt           time.Duration
	above            Index[struct{}]
}

// Add records seq, delivered at now, and reports whether it was new:
// false for a number at or below the floor, or one already recorded.
// life is how long after its first send a number can still arrive.
func (w *Window) Add(seq uint32, now, life time.Duration) bool {
	if _, dup := w.above.Get(uint64(seq)); dup || seq <= w.floor {
		return false
	}
	w.above.Put(uint64(seq), struct{}{})
	w.top = max(w.top, seq)
	if w.mark > w.floor && now-w.markAt >= life { // up to mark, all delivered or given up
		for ; w.floor < w.mark && w.above.Len() > 0; w.floor++ {
			w.above.Delete(uint64(w.floor + 1))
		}
		w.floor = w.mark
	}
	for _, ok := w.above.Delete(uint64(w.floor + 1)); ok; _, ok = w.above.Delete(uint64(w.floor + 1)) {
		w.floor++
	}
	if w.mark <= w.floor && w.floor < w.top {
		w.mark, w.markAt = w.top, now // the floor stalls below top
	}
	return true
}
