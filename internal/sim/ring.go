package sim

// Ring is a growable circular FIFO. Unlike a head-resliced Go slice, a
// ring never pins consumed elements: every removal zeroes the vacated
// slot, so a drained ring holds no references for the garbage collector
// to trace. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the first element
	n    int // number of elements
}

// RingOn returns an empty ring that starts on buf — typically an array
// embedded beside the ring in the record that owns it, so a queue that
// stays short never allocates — and moves to the heap when it outgrows
// buf. buf must hold only zero values.
func RingOn[T any](buf []T) Ring[T] { return Ring[T]{buf: buf} }

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// idx maps the i-th element from the head (0 ≤ i ≤ n ≤ len(buf)) to its
// slot. head+i stays below 2·len(buf), so one compare wraps it.
func (r *Ring[T]) idx(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// grow doubles the backing array (min 8) and linearizes the contents.
func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	c = max(c, 8)
	buf := make([]T, c)
	k := copy(buf, r.buf[r.head:])
	if k < r.n {
		copy(buf[k:], r.buf[:r.n-k])
	}
	r.buf = buf
	r.head = 0
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) { *r.PushSlot() = v }

// PushSlot appends a zero element at the tail and returns its slot, so
// a large element is built in place instead of copied in. The pointer is
// good until the next Push or PushSlot, which may move the ring.
func (r *Ring[T]) PushSlot() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	p := &r.buf[r.idx(r.n)]
	r.n++
	return p
}

// Head returns the head element's slot without removing it: read (or
// move out of) it in place, then Drop. It panics on an empty ring.
func (r *Ring[T]) Head() *T {
	if r.n == 0 {
		panic("sim: Head on empty ring")
	}
	return &r.buf[r.head]
}

// Tail returns the tail element's slot, to extend in place. It panics
// on an empty ring.
func (r *Ring[T]) Tail() *T {
	if r.n == 0 {
		panic("sim: Tail on empty ring")
	}
	return &r.buf[r.idx(r.n-1)]
}

// Drop removes the head element. It panics on an empty ring.
func (r *Ring[T]) Drop() {
	if r.n == 0 {
		panic("sim: Drop on empty ring")
	}
	var zero T
	r.buf[r.head] = zero
	r.head = r.idx(1)
	r.n--
}

// Pop removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	v := *r.Head()
	r.Drop()
	return v
}

// At returns the i-th element from the head without removing it.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return r.buf[r.idx(i)]
}

// Keep appends v as a bounded history of max elements: when the ring
// already holds max, it drops the head first and reports so. A ring
// started with RingOn on a max-sized array never moves to the heap.
func (r *Ring[T]) Keep(v T, max int) (dropped bool) {
	if dropped = r.n >= max; dropped {
		r.Drop()
	}
	r.Push(v)
	return dropped
}

// Last returns a copy of the newest n elements (all of them, when
// fewer are queued), oldest first; nil when there are none.
func (r *Ring[T]) Last(n int) []T {
	n = min(n, r.n)
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[r.idx(r.n-n+i)]
	}
	return out
}
