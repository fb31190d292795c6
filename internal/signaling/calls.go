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

// bySeq returns the values of m that keep accepts, in their order: a
// call's creation order, a pending message's sequence. With none, it
// allocates nothing.
func bySeq[K comparable, V interface{ order() uint64 }](m map[K]V, keep func(V) bool) []V {
	var vs []V
	for _, v := range m {
		if keep(v) {
			vs = append(vs, v)
		}
	}
	slices.SortFunc(vs, func(a, b V) int { return cmp.Compare(a.order(), b.order()) })
	return vs
}

func (c *call) order() uint64        { return c.seq }
func (pm *pendingMsg) order() uint64 { return uint64(pm.m.Seq) }

// every is the bySeq filter that keeps each value.
func every[V any](V) bool { return true }

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
