package sim

import "time"

// Queue is an unbounded FIFO mailbox connecting simulation entities.
// Producers Put from engine or process context; consumer processes Get,
// blocking until an item, a timeout, or Close. Items are handed directly
// to the longest-waiting consumer, so delivery order is deterministic.
// The zero value is an empty open queue, so a Queue can be embedded by
// value in the record that owns it.
//
// Items and overflow waiters live in ring buffers, so consumed entries
// are dropped for the garbage collector immediately — a drained queue
// retains no references to the values that passed through it.
//
// A blocking get allocates nothing: the first consumer to wait on an
// otherwise unwaited queue parks in w0, inline; consumers arriving
// behind it use records recycled through free, and waiters holds them
// in arrival order (w0, when waiting, is older than all of them).
type Queue[T any] struct {
	items   Ring[T]
	w0      qwaiter[T]
	waiters Ring[*qwaiter[T]]
	free    FreeList[qwaiter[T]]
	closed  bool
}

type waitState uint8

const (
	waitIdle     waitState = iota // record not in use
	waitParked                    // consumer parked, nothing decided yet
	waitGotItem                   // Put handed it an item
	waitTimedOut                  // its timer fired first
	waitDropped                   // queue closed, or its proc died waiting
)

// wait is the part of a waiter its timeout works on. It is not generic,
// so the timer can carry it to a plain function through ScheduleArg.
type wait struct {
	p     *Proc
	state waitState
}

type qwaiter[T any] struct {
	wait
	item T
}

// Len reports the number of buffered (undelivered) items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Waiting reports the waiter records out of the queue's free list: the
// consumers parked behind the first, 0 when at most one waits.
func (q *Queue[T]) Waiting() int { return q.free.Outstanding() }

// take removes the longest-waiting live parked consumer from the wait
// list, marking it dropped (Put overrides that with the item), and
// returns nil when nobody is parked. Waiters that timed out and have not
// yet run to unlink themselves are passed over. A killed one never
// returns its record, which its timer may still name: it is dropped.
func (q *Queue[T]) take() *qwaiter[T] {
	for w := &q.w0; ; w = q.waiters.Pop() {
		if w.state == waitParked {
			w.state = waitDropped
			if !w.p.done && !w.p.killed {
				return w
			}
			if w != &q.w0 {
				q.free.Drop(w)
			}
		}
		if q.waiters.Len() == 0 {
			return nil
		}
	}
}

// Put appends v. If a consumer is waiting, v is handed to it directly.
// Put on a closed queue drops v and reports false. Waiters whose
// process has been killed are skipped so items are never handed to the
// dead.
func (q *Queue[T]) Put(v T) bool {
	if q.closed {
		return false
	}
	if w := q.take(); w != nil {
		w.item, w.state = v, waitGotItem
		w.p.Unpark()
		return true
	}
	q.items.Push(v)
	return true
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	return q.items.Pop(), true
}

// Get blocks process p until an item arrives or the queue closes. The
// second result is false if the queue closed with nothing to deliver.
func (q *Queue[T]) Get(p *Proc) (T, bool) {
	v, ok, _ := q.GetTimeout(p, -1)
	return v, ok
}

// GetTimeout is Get with a timeout; d < 0 means no timeout. The third
// result reports whether the wait timed out.
func (q *Queue[T]) GetTimeout(p *Proc, d time.Duration) (v T, ok bool, timedOut bool) {
	if q.items.Len() > 0 {
		return q.items.Pop(), true, false
	}
	if q.closed {
		return v, false, false
	}
	w := &q.w0
	if w.p != nil || q.waiters.Len() > 0 {
		w = q.free.Get()
		q.waiters.Push(w)
	}
	w.p, w.state = p, waitParked
	var timer Timer
	if d >= 0 {
		timer = p.e.ScheduleArg(d, waitTimeout, &w.wait)
	}
	// A kill unwinds from Park and never reaches the release below: the
	// record stays claimed (its timer may still be pending and points at
	// it), so an abandoned waiter is never handed to another consumer.
	p.Park()
	timer.Stop()
	v, st := w.item, w.state
	if st == waitTimedOut && w != &q.w0 {
		q.unlink(w)
	}
	*w = qwaiter[T]{}
	if w != &q.w0 {
		q.free.Put(w)
	}
	return v, st == waitGotItem, st == waitTimedOut
}

// waitTimeout is the timer of a bounded get. It only marks and wakes:
// the consumer unlinks itself from the wait list when it runs, and until
// then Put and Close pass over the record.
func waitTimeout(arg any) {
	w := arg.(*wait)
	if w.state != waitParked {
		return
	}
	w.state = waitTimedOut
	w.p.Unpark()
}

func (q *Queue[T]) unlink(w *qwaiter[T]) {
	for i := 0; i < q.waiters.Len(); i++ {
		if q.waiters.At(i) == w {
			q.waiters.removeAt(i)
			return
		}
	}
}

// Close marks the queue closed and wakes all waiting consumers. Buffered
// items already queued remain retrievable by TryGet but blocked Gets
// return not-ok.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for w := q.take(); w != nil; w = q.take() {
		w.p.Unpark()
	}
}
