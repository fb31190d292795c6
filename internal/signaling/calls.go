package signaling

import (
	"cmp"
	"slices"

	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
)

// The pooled records behind the state machine; sighost.go decides,
// this file keeps the books.

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
		sh.callPool = c.poolNext
		gen, alarm := c.gen, c.alarm
		*c = call{}
		c.gen, c.alarm = gen, alarm
		return c
	}
	c := &call{gen: 1}
	c.alarm = func() { sh.step(c, onTimeout, &input{}) }
	return c
}

// releaseCall returns a call that has left every table to the pool. The gen bump
// invalidates every outstanding callback that captured this struct.
func (sh *Sighost) releaseCall(c *call) {
	c.gen++
	c.vc = nil
	c.serverConn = nil
	c.poolNext = sh.callPool
	sh.callPool = c
}

// callsBySeq returns the calls of m that keep accepts, in creation
// order. With none, it allocates nothing.
func callsBySeq[K comparable](m map[K]*call, keep func(*call) bool) []*call {
	var cs []*call
	for _, c := range m {
		if keep(c) {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b *call) int { return cmp.Compare(a.seq, b.seq) })
	return cs
}

// every is the callsBySeq filter that keeps each call.
func every(*call) bool { return true }

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
