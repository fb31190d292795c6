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

// grow doubles the backing array (min 8) and linearizes the contents.
func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c < 8 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// PushFront prepends v at the head.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// PopTail removes and returns the tail element. It panics on an empty ring.
func (r *Ring[T]) PopTail() T {
	if r.n == 0 {
		panic("sim: PopTail on empty ring")
	}
	var zero T
	i := (r.head + r.n - 1) % len(r.buf)
	v := r.buf[i]
	r.buf[i] = zero
	r.n--
	return v
}

// At returns the i-th element from the head without removing it.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// RemoveAt removes and returns the i-th element from the head,
// preserving the order of the rest.
func (r *Ring[T]) RemoveAt(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	v := r.At(i)
	// Shift the shorter side over the hole.
	if i < r.n-i-1 {
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j-1)%len(r.buf)]
		}
		var zero T
		r.buf[r.head] = zero
		r.head = (r.head + 1) % len(r.buf)
	} else {
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j+1)%len(r.buf)]
		}
		var zero T
		r.buf[(r.head+r.n-1)%len(r.buf)] = zero
	}
	r.n--
	return v
}

// Cap returns the current backing-array capacity (for tests).
func (r *Ring[T]) Cap() int { return len(r.buf) }
