package signaling

import (
	"time"

	"xunet/internal/atm"
	"xunet/internal/memnet"
	"xunet/internal/trace"
)

// The pooled records behind the state machine and the intrusive lists
// that index them; sighost.go decides, this file keeps the books.

// ownerKey identifies the process behind outstanding origin requests:
// an exit indication walks exactly this process's chain instead of
// scanning the whole outgoing_requests table.
type ownerKey struct {
	ip  memnet.IPAddr
	pid uint32
}

// peerCalls heads the per-peer chain of live calls, in creation order.
type peerCalls struct {
	head, tail *call
	n          int
}

// bindWait is a wait_for_bind entry: a VCI handed to an application
// that has not yet bound or connected, guarded by the per-VCI timer.
// deadline is the timer's absolute expiry; crash-recovery re-arms the
// timer with only the remaining allowance. Entries are pooled; fire is
// bound once per struct so re-arming allocates nothing.
type bindWait struct {
	sh       *Sighost
	c        *call
	vci      atm.VCI
	cancel   CancelFunc
	deadline time.Duration
	next     *bindWait // pool link
	fire     func()
}

// dialCtx carries one outstanding Env.Dial across its asynchronous
// callback without a per-dial closure allocation: the cb func is bound
// once per (pooled) struct. Payload fields the callback must be able to
// read after the call is gone (the VCI hand-off, failure notices) are
// copied in by value.
type dialCtx struct {
	sh     *Sighost
	kind   uint8
	c      *call
	gen    uint32
	cookie uint16
	vci    atm.VCI
	qosStr string
	reason string
	tc     trace.Context
	next   *dialCtx // pool link
	cb     func(Conn, error)
}

const (
	dcServer    uint8 = iota + 1 // peerSetup's dial to the server's notify port
	dcClientVCI                  // peerSetupAck's VCI hand-off to the client
	dcNotify                     // notifyClientFailure's CONN_FAILED delivery
)

// newCall takes a call struct from the pool (or allocates the pool's
// first). The incarnation counter survives recycling so stale async
// callbacks can detect reuse.
func (sh *Sighost) newCall() *call {
	if c := sh.callPool; c != nil {
		sh.callPool = c.allNext
		gen := c.gen
		*c = call{}
		c.gen = gen
		return c
	}
	return &call{gen: 1}
}

// releaseCall returns a fully unlinked call to the pool. The gen bump
// invalidates every outstanding callback that captured this struct.
func (sh *Sighost) releaseCall(c *call) {
	c.gen++
	c.vc = nil
	c.serverConn = nil
	c.allNext = sh.callPool
	sh.callPool = c
}

// linkCall registers a new call in the calls table and threads it on the
// all-calls and per-peer lists.
func (sh *Sighost) linkCall(c *call) {
	sh.calls[c.key] = c
	c.allPrev = sh.allTail
	if sh.allTail != nil {
		sh.allTail.allNext = c
	} else {
		sh.allHead = c
	}
	sh.allTail = c
	pc := sh.byPeer[c.key.peer]
	if pc == nil {
		pc = &peerCalls{}
		sh.byPeer[c.key.peer] = pc
	}
	c.peerPrev = pc.tail
	if pc.tail != nil {
		pc.tail.peerNext = c
	} else {
		pc.head = c
	}
	pc.tail = c
	pc.n++
}

// unlinkCall removes a call from the calls table and both lists. Safe to
// call twice (the table check makes the second a no-op).
func (sh *Sighost) unlinkCall(c *call) {
	if sh.calls[c.key] != c {
		return
	}
	delete(sh.calls, c.key)
	if c.allPrev != nil {
		c.allPrev.allNext = c.allNext
	} else {
		sh.allHead = c.allNext
	}
	if c.allNext != nil {
		c.allNext.allPrev = c.allPrev
	} else {
		sh.allTail = c.allPrev
	}
	c.allNext, c.allPrev = nil, nil
	pc := sh.byPeer[c.key.peer]
	if c.peerPrev != nil {
		c.peerPrev.peerNext = c.peerNext
	} else {
		pc.head = c.peerNext
	}
	if c.peerNext != nil {
		c.peerNext.peerPrev = c.peerPrev
	} else {
		pc.tail = c.peerPrev
	}
	c.peerNext, c.peerPrev = nil, nil
	pc.n--
}

// linkOwner threads an outstanding origin request on its process's
// chain; mirrors membership in the outgoing_requests table.
func (sh *Sighost) linkOwner(c *call) {
	if c.ownerPID == 0 {
		return
	}
	k := ownerKey{ip: c.endIP, pid: c.ownerPID}
	if head := sh.byOwner[k]; head != nil {
		head.ownPrev = c
		c.ownNext = head
	}
	sh.byOwner[k] = c
	c.ownLinked = true
}

func (sh *Sighost) unlinkOwner(c *call) {
	if !c.ownLinked {
		return
	}
	c.ownLinked = false
	if c.ownPrev != nil {
		c.ownPrev.ownNext = c.ownNext
	} else {
		k := ownerKey{ip: c.endIP, pid: c.ownerPID}
		if c.ownNext != nil {
			sh.byOwner[k] = c.ownNext
		} else {
			delete(sh.byOwner, k)
		}
	}
	if c.ownNext != nil {
		c.ownNext.ownPrev = c.ownPrev
	}
	c.ownNext, c.ownPrev = nil, nil
}

// newBindWait takes a wait_for_bind entry from the pool and arms its
// timer for deadline: the full BindTimeout on grant, or whatever
// remained of the original deadline when crash-recovery re-arms it.
func (sh *Sighost) newBindWait(c *call, vci atm.VCI, deadline time.Duration) *bindWait {
	bw := sh.bwPool
	if bw == nil {
		bw = &bindWait{sh: sh}
		bw.fire = func() { bw.fireNow() }
	} else {
		sh.bwPool = bw.next
	}
	bw.c, bw.vci, bw.deadline, bw.next = c, vci, deadline, nil
	bw.cancel = sh.env.After(deadline-sh.env.Now(), "bind.timeout", bw.fire)
	return bw
}

// freeBindWait recycles a wait_for_bind entry whose timer has fired or
// been canceled.
func (sh *Sighost) freeBindWait(bw *bindWait) {
	bw.c, bw.cancel = nil, nil
	bw.next = sh.bwPool
	sh.bwPool = bw
}

// newDialCtx takes a dial context from the pool; its cb closure is bound
// exactly once, on first allocation.
func (sh *Sighost) newDialCtx() *dialCtx {
	dc := sh.dcPool
	if dc == nil {
		dc = &dialCtx{sh: sh}
		dc.cb = func(conn Conn, err error) { dc.run(conn, err) }
	} else {
		sh.dcPool = dc.next
	}
	return dc
}
