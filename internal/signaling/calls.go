package signaling

import (
	"cmp"
	"iter"
	"slices"

	"xunet/internal/atm"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
)

// The pooled records behind the state machine; sighost.go decides,
// this file keeps the books.

// dialCtx carries one outstanding Env.Dial, for call c's incarnation
// gen, across its asynchronous callback, bound once per pooled struct.
// It carries the message the dial delivers (VCI_FOR_CONN, CONN_FAILED)
// by value, so delivery needs nothing from the call; none: the server's.
type dialCtx struct {
	c   *call
	gen uint32
	m   sigmsg.Msg
	cb  func(Conn, error)
}

// newCall takes a call struct from the pool. The incarnation counter
// survives recycling so stale async callbacks can detect reuse, and so
// does alarm, its timers' input, bound when the pool makes the struct.
func (sh *Sighost) newCall() *call {
	c := sh.callPool.Get()
	gen, alarm := c.gen, c.alarm
	if alarm == nil {
		gen, alarm = 1, func() { sh.react(c, onTimeout, nil) }
	}
	*c = call{gen: gen, alarm: alarm}
	return c
}

// releaseCall returns a call that has left every table to the pool. The gen bump
// invalidates every outstanding callback that captured this struct.
func (sh *Sighost) releaseCall(c *call) {
	c.gen++
	c.vc = nil
	c.serverConn = nil
	sh.callPool.Put(c)
}

// callTable is the call index. A call ID is scoped to the sighost that
// issued it and ascends there, so each issuer's calls sit in a sim.Index
// by ID, found by the issuer's address among the few: this sighost's
// own calls (its origin views) under "", each signaling neighbor's (its
// destination views) under the neighbor's.
type callTable []issuer

type issuer struct {
	by    atm.Addr
	calls sim.Index[*call]
}

// index returns key's issuer's calls, adding the issuer if add.
func (t *callTable) index(key callKey, add bool) *sim.Index[*call] {
	by := key.peer
	if key.origin {
		by = ""
	}
	for i := range *t {
		if (*t)[i].by == by {
			return &(*t)[i].calls
		}
	}
	if !add {
		return nil
	}
	*t = append(*t, issuer{by: by})
	return &(*t)[len(*t)-1].calls
}

// get returns the call key names, nil if none.
func (t *callTable) get(key callKey) *call {
	if x := t.index(key, false); x != nil {
		if c, _ := x.Get(uint64(key.id)); c != nil && c.key == key {
			return c
		}
	}
	return nil
}

// put indexes c under its key, in place of any call the key named.
func (t *callTable) put(c *call) { t.index(c.key, true).Put(uint64(c.key.id), c) }

// drop unindexes c, if its key still names it.
func (t *callTable) drop(c *call) {
	if t.get(c.key) == c {
		t.index(c.key, false).Delete(uint64(c.key.id))
	}
}

// len counts the calls indexed.
func (t callTable) len() (n int) {
	for i := range t {
		n += t[i].calls.Len()
	}
	return n
}

// all yields every indexed call, in no fixed order.
func (t callTable) all() iter.Seq2[uint64, *call] {
	return func(yield func(uint64, *call) bool) {
		for i := range t {
			for id, c := range t[i].calls.All() {
				if !yield(id, c) {
					return
				}
			}
		}
	}
}

// byVCI is a list keyed by VCI (wait_for_bind, VCI_mapping): the VCI
// indexes a slice, as it indexes PF_XUNET's PCB table (§6). n counts
// the entries.
type byVCI struct {
	tab []*call
	n   int
}

func (l *byVCI) at(v atm.VCI) *call {
	if int(v) < len(l.tab) {
		return l.tab[v]
	}
	return nil
}

func (l *byVCI) put(v atm.VCI, c *call) {
	l.tab = atm.Grow(l.tab, v)
	if l.tab[v] == nil {
		l.n++
	}
	l.tab[v] = c
}

// drop removes v's entry if it is c.
func (l *byVCI) drop(v atm.VCI, c *call) {
	if c != nil && l.at(v) == c {
		l.tab[v] = nil
		l.n--
	}
}

// bySeq appends to vs the values of x that keep accepts and returns vs
// in their order: a call's creation order, a pending message's
// sequence. It ranges over x itself, so the walk inlines: with nothing
// kept, it allocates nothing.
func bySeq[V interface{ order() uint64 }](vs []V, x *sim.Index[V], keep func(V) bool) []V {
	for _, v := range x.All() {
		if keep(v) {
			vs = append(vs, v)
		}
	}
	return inOrder(vs)
}

// inOrder sorts vs into their order.
func inOrder[V interface{ order() uint64 }](vs []V) []V {
	slices.SortFunc(vs, func(a, b V) int { return cmp.Compare(a.order(), b.order()) })
	return vs
}

// bySeq returns the indexed calls keep accepts, in creation order.
func (t callTable) bySeq(keep func(*call) bool) (cs []*call) {
	for i := range t {
		cs = bySeq(cs, &t[i].calls, keep)
	}
	return cs
}

func (c *call) order() uint64        { return c.seq }
func (pm *pendingMsg) order() uint64 { return uint64(pm.m.Seq) }

// every is the bySeq filter that keeps each value.
func every[V any](V) bool { return true }

// dial opens a connection to an application's notify port, for c (nil
// for none), to deliver m. It takes a dial context from the pool; its cb
// closure is bound exactly once, on first allocation.
func (sh *Sighost) dial(ip memnet.IPAddr, port uint16, c *call, m sigmsg.Msg) {
	dc := sh.dcPool.Get()
	if dc.cb == nil {
		dc.cb = func(conn Conn, err error) { sh.dialed(dc, conn, err) }
	}
	dc.c, dc.m = c, m
	if c != nil {
		dc.gen = c.gen
	}
	sh.env.Dial(ip, port, dc.cb)
}
