package signaling

import (
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
)

// input is one entry of the actor's inbox, in either environment. The
// paper's sighost "only acts in response to messages received from the
// user library, the local or remote kernel, or the peer signaling
// entity" (§7), so an Env only produces inputs of these kinds, and
// dispatch runs each to completion. Inputs travel by value, so handing
// the actor a message allocates nothing.
type input struct {
	kind   inputKind
	conn   Conn              // inApp: the connection the message arrived on
	ip     memnet.IPAddr     // inApp, inKernel: the sending machine
	peer   atm.Addr          // inPeer: the sending sighost
	msg    sigmsg.Msg        // inApp, inPeer
	kmsg   kern.KMsg         // inKernel
	timer  *timer            // inTimer
	dialed func(Conn, error) // inDialed: Dial's callback, given conn and err
	err    error
	fn     func()        // inFunc: Crash, Recover, MGMT-side reads, RealHost.Do
	waiter *sim.Proc     // sim inKernel: the device reader to release once handled
	at     time.Duration // real: when it was queued, for rtenv.inbox.wait
}

type inputKind uint8

const (
	inFunc inputKind = iota
	inApp
	inPeer
	inKernel
	inTimer
	inDialed
)

// dispatch runs one input in actor context.
func (sh *Sighost) dispatch(in *input) {
	switch in.kind {
	case inApp:
		sh.HandleApp(in.conn, in.ip, in.msg)
	case inPeer:
		sh.HandlePeer(in.peer, in.msg)
	case inKernel:
		sh.HandleKernel(in.ip, in.kmsg)
	case inTimer:
		// Released first: fn may arm its successor on the same record.
		if fn := in.timer.release(); fn != nil {
			fn()
		}
	case inDialed:
		in.dialed(in.conn, in.err)
	default:
		in.fn()
	}
}

// timer is one armed Env.After, in either environment: when its clock
// runs out the record goes through the inbox like any other input, and
// dispatch runs fn unless the timer was canceled in between. A cancel
// always wins, even over a firing already queued behind a busy actor.
// Records are recycled through their timers list at the one point each
// timer ends: its cancel stopping the clock, or dispatch taking its
// firing off the inbox. gen moves on there, so a CancelFunc kept past
// that point does nothing to the record's next user.
type timer struct {
	fn       func()
	gen      uint32
	canceled bool
	list     *timers
	next     *timer      // free-list link
	ev       sim.Timer   // sim: the engine event
	rt       *time.Timer // real: made on the record's first arm, Reset after
}

// timers is an env's free list of timer records, and how a firing
// reaches the env's inbox (in real mode, from the runtime timer's
// goroutine).
type timers struct {
	free *timer
	put  func(input)
}

// get takes a record for fn from the free list, or makes one.
func (l *timers) get(fn func()) *timer {
	t := l.free
	if t != nil {
		l.free, t.next = t.next, nil
	} else {
		t = &timer{list: l}
	}
	t.fn, t.canceled = fn, false
	return t
}

// fired queues the record's firing; it reads nothing the actor writes.
func (t *timer) fired() { t.list.put(input{kind: inTimer, timer: t}) }

// cancelFunc cancels this arming of the record and no later one.
func (t *timer) cancelFunc() CancelFunc {
	gen := t.gen
	return func() { t.cancel(gen) }
}

// cancel releases the record at once if its clock had not run out;
// otherwise the firing is queued, and dispatch releases it without
// running fn.
func (t *timer) cancel(gen uint32) {
	if t.gen != gen {
		return
	}
	t.canceled = true
	if t.rt != nil && t.rt.Stop() || t.rt == nil && t.ev.Stop() {
		t.release()
	}
}

// release returns the record to its free list and reports what the
// actor should run, nil if the timer was canceled.
func (t *timer) release() (fn func()) {
	if !t.canceled {
		fn = t.fn
	}
	t.fn = nil
	t.gen++
	t.next, t.list.free = t.list.free, t
	return fn
}
