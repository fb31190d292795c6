package sim

import "time"

// Queue is an unbounded FIFO mailbox with one reader, as every mailbox
// of the simulated world has: a socket's receive queue, a listener's
// backlog, a stream's inbox. Producers Put from engine or process
// context; the reader Gets, blocking until an item, a timeout, or Close.
// An item Put while the reader waits is handed to it directly. A second
// process that waits on a queue while another still does panics. The
// zero value is an empty open queue, so a Queue can be embedded by value
// in the record that owns it.
//
// Items live in a ring buffer, so consumed entries are dropped for the
// garbage collector immediately — a drained queue retains no references
// to the values that passed through it. A blocking get allocates
// nothing: the reader parks in w, inline, and its timeout is an event
// carrying w.
type Queue[T any] struct {
	items  Ring[T]
	w      qwaiter[T]
	closed bool
}

type waitState uint8

const (
	waitIdle     waitState = iota // no reader waits
	waitParked                    // reader parked, nothing decided yet
	waitGotItem                   // Put handed it an item
	waitTimedOut                  // its timer fired first
	waitDropped                   // queue closed
)

// wait is the part of a waiter its timeout works on. It is not generic,
// so the timer can carry it to a plain function through ScheduleArg.
type wait struct {
	p     *Proc
	state waitState
}

type qwaiter[T any] struct {
	wait
	item  T
	timer Timer
}

// Len reports the number of buffered (undelivered) items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// vacant reports whether the reader's slot is free. A reader killed while
// parked unwinds past its own release and leaves the slot claimed, its
// timer perhaps still pending: vacant clears it, timer stopped, so that
// timer can never time out the next reader's get.
func (q *Queue[T]) vacant() bool {
	if p := q.w.p; p == nil || !p.done && !p.killed {
		return p == nil
	}
	q.w.timer.Stop()
	q.w = qwaiter[T]{}
	return true
}

// take returns the parked reader, marked dropped (Put overrides that
// with the item), or nil when none is parked.
func (q *Queue[T]) take() *qwaiter[T] {
	w := &q.w
	if q.vacant() || w.state != waitParked {
		return nil
	}
	w.state = waitDropped
	return w
}

// Put appends v. If the reader is waiting, v is handed to it directly;
// a reader killed while waiting is never handed anything. Put on a
// closed queue drops v and reports false.
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
	if !q.vacant() {
		panic("sim: a second process waits on a queue")
	}
	w := &q.w
	w.p, w.state = p, waitParked
	if d >= 0 {
		w.timer = p.e.ScheduleArg(d, waitTimeout, &w.wait)
	}
	// A kill unwinds from Park and never reaches the release below; the
	// next Put, Close or get finds the slot's reader dead (vacant).
	p.Park()
	w.timer.Stop()
	v, st := w.item, w.state
	*w = qwaiter[T]{}
	return v, st == waitGotItem, st == waitTimedOut
}

// waitTimeout is the timer of a bounded get. It only marks and wakes;
// until the reader runs, Put buffers what arrives.
func waitTimeout(arg any) {
	w := arg.(*wait)
	if w.state != waitParked {
		return
	}
	w.state = waitTimedOut
	w.p.Unpark()
}

// Close marks the queue closed and wakes a waiting reader. Buffered
// items already queued remain retrievable by TryGet but a blocked Get
// returns not-ok.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	if w := q.take(); w != nil {
		w.p.Unpark()
	}
}
