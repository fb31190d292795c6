package signaling

import (
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
)

// The pooled records behind the state machine and the intrusive lists
// that index them; sighost.go decides, this file keeps the books.

// ownerKey identifies the process behind outstanding origin requests,
// whose chain its exit indication walks (not all outgoing_requests).
type ownerKey struct {
	ip  memnet.IPAddr
	pid uint32
}

// peerCalls heads the per-peer chain of live calls, in creation order.
type peerCalls struct {
	head, tail *call
	n          int
}

// dialCtx carries one outstanding Env.Dial, for call c's incarnation
// gen, across its asynchronous callback, bound once per pooled struct.
// It carries the message the dial delivers (VCI_FOR_CONN, CONN_FAILED)
// by value, so delivery needs nothing from the call; none: the server's.
type dialCtx struct {
	c    *call
	gen  uint32
	m    sigmsg.Msg
	next *dialCtx // pool link
	cb   func(Conn, error)
}

// newCall takes a call struct from the pool (or allocates the pool's
// first). The incarnation counter survives recycling so stale async
// callbacks can detect reuse, and so does alarm, its timers' input.
func (sh *Sighost) newCall() *call {
	if c := sh.callPool; c != nil {
		sh.callPool = c.allNext
		gen, alarm := c.gen, c.alarm
		*c = call{}
		c.gen, c.alarm = gen, alarm
		return c
	}
	c := &call{gen: 1}
	c.alarm = func() { sh.step(c, onTimeout, &input{}) }
	return c
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
}

func (sh *Sighost) unlinkOwner(c *call) {
	if c.ownerPID == 0 {
		return
	}
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

// dial opens a connection to an application's notify port, for c (nil
// for none), to deliver m. It takes a dial context from the pool; its cb
// closure is bound exactly once, on first allocation.
func (sh *Sighost) dial(ip memnet.IPAddr, port uint16, c *call, m sigmsg.Msg) {
	dc := sh.dcPool
	if dc == nil {
		dc = &dialCtx{}
		dc.cb = func(conn Conn, err error) { sh.dialed(dc, conn, err) }
	} else {
		sh.dcPool = dc.next
	}
	dc.c, dc.m = c, m
	if c != nil {
		dc.gen = c.gen
	}
	sh.env.Dial(ip, port, dc.cb)
}
