// Package mbuf implements BSD-style message buffer chains.
//
// The paper's instruction-count model (Table 1) has per-mbuf terms: the
// PF_XUNET receive path and the IPPROTO_ATM send path each cost 8
// instructions per mbuf in the chain being processed. To make those terms
// emerge from real work rather than arithmetic, the data path of this
// reproduction moves payloads as mbuf chains, exactly as the IRIX kernel
// did: a frame written to a PF_XUNET socket becomes a chain of fixed-size
// buffers, layers prepend headers by growing the chain, and per-mbuf loop
// costs are charged as the chain is walked.
//
// Ownership follows BSD's m_freem discipline. A chain passed to a callee
// belongs to the callee: the caller never touches it again, and exactly
// one terminal consumer — the layer that copies the data out, segments
// it into cells, or drops it — calls Release, on every path, errors
// included. Release recycles the chain header along with its mbufs into
// the Pool the chain was drawn from, so a frame handed down and up the
// stack allocates nothing once the free lists are warm. Each machine
// owns one Pool, as it owns its meter: the lists are plain slices with
// no lock, and a pool counts the chains it has out, so a missed Release
// shows in the drain audit. Under the race detector Release poisons the
// header instead of recycling it, and any later use or second Release
// panics with the stack that released it.
package mbuf

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"xunet/internal/trace"
)

// MLEN is the data capacity of a single small mbuf, matching the
// classic BSD value (128-byte mbuf minus header overhead).
const MLEN = 112

// MCLBYTES is the capacity of a cluster mbuf, used when a single write
// is large enough that chaining small mbufs would be wasteful.
const MCLBYTES = 2048

// clusterThreshold mirrors the BSD policy: writes larger than this go
// into cluster mbufs.
const clusterThreshold = MLEN * 2

// Mbuf is a single buffer in a chain. Data is the valid bytes; a header
// prepend may use spare capacity at the front of the allocation.
type Mbuf struct {
	buf  []byte // full allocation
	off  int    // start of valid data within buf
	n    int    // number of valid bytes
	next *Mbuf
}

// leadingSpace is how much room new mbufs reserve at the front for
// headers prepended by lower layers (the BSD max_linkhdr idea). 24
// bytes covers the checksummed IPPROTO_ATM encapsulation header for
// ATM addresses up to 14 characters.
const leadingSpace = 24

// Pool is one engine's free lists, in the spirit of the BSD mbuf map:
// small mbufs, clusters and chain headers. A chain records the pool it
// was drawn from, and Release returns its header and mbufs there, as do
// the mbufs that Prepend, AppendBytes, Pullup and Clone add to it. A
// pool has one owner, a kern.Machine, and is not safe for concurrent
// use: a chain never leaves its engine (links never join engines, and
// trunks copy cells). A nil *Pool draws from shared sync.Pool lists
// instead, for tests and tools that run outside a machine.
type Pool struct {
	mbufs  [2][]*Mbuf // small and cluster
	chains []*Chain
	out    int // chains drawn minus chains released
}

// The size classes, and the shared lists behind a nil *Pool.
var (
	classes = [2]int{MLEN, MCLBYTES}
	shared  = [2]sync.Pool{{New: func() any { return newMbuf(MLEN) }}, {New: func() any { return newMbuf(MCLBYTES) }}}
	headers = sync.Pool{New: func() any { return new(Chain) }}
)

func newMbuf(c int) *Mbuf { return &Mbuf{buf: make([]byte, c+leadingSpace)} }

// class is the size class an mbuf of capacity c comes from, if any.
func class(c int) int { return min(c/(MLEN+1), 1) }

// pop takes the last entry of a free list, or nil from an empty one.
func pop[T any](l *[]*T) (v *T) {
	if n := len(*l) - 1; n >= 0 {
		v, *l = (*l)[n], (*l)[:n]
	}
	return v
}

// Outstanding reports the chains drawn from p and not yet released: 0
// at quiescence, when every frame has met its terminal consumer.
func (p *Pool) Outstanding() int { return p.out }

// FromBytes builds a chain from b, drawn from p, using the standard
// allocation policy: cluster mbufs for large messages, small mbufs
// otherwise. The data is copied; b may be reused by the caller.
func (p *Pool) FromBytes(b []byte) *Chain {
	c := p.newChain()
	c.AppendBytes(b)
	return c
}

// newChain draws an empty header: every chain this package builds.
func (p *Pool) newChain() *Chain {
	var c *Chain
	if p == nil {
		c = headers.Get().(*Chain)
	} else if p.out++; len(p.chains) > 0 {
		c = pop(&p.chains)
	} else {
		c = new(Chain)
	}
	c.pool, c.pooled = p, true
	return c
}

// alloc returns an mbuf with capacity at least c and leading space
// reserved, drawing from the small or cluster free list when c fits a
// standard size class.
func (p *Pool) alloc(c int) (m *Mbuf) {
	k := class(c)
	switch {
	case c > MCLBYTES:
		return &Mbuf{buf: make([]byte, c+leadingSpace), off: leadingSpace}
	case p == nil:
		m = shared[k].Get().(*Mbuf)
	default:
		if m = pop(&p.mbufs[k]); m == nil {
			m = newMbuf(classes[k])
		}
	}
	m.off, m.n, m.next = leadingSpace, 0, nil
	return m
}

// free returns a standard-size mbuf to its free list.
func (p *Pool) free(m *Mbuf) {
	switch k := class(len(m.buf) - leadingSpace); {
	case len(m.buf) != classes[k]+leadingSpace: // oversize: the collector's
	case p == nil:
		shared[k].Put(m)
	default:
		p.mbufs[k] = append(p.mbufs[k], m)
	}
}

// Release returns the chain's mbufs and header to the pool it was drawn
// from. Call it once, when the data has been consumed (copied out or
// dropped): neither the chain nor slices from Data may be used
// afterward. A header not built here (an embedded or literal Chain) is
// emptied, not recycled. Release of nil is a no-op.
func (c *Chain) Release() {
	if c == nil {
		return
	}
	c.poison.check()
	p := c.pool
	for m := c.head; m != nil; {
		next := m.next
		p.free(m)
		m = next
	}
	pooled := c.pooled
	*c = Chain{}
	switch {
	case !c.poison.release() || !pooled:
	case p == nil:
		headers.Put(c)
	default:
		p.chains = append(p.chains, c)
	}
	if pooled && p != nil {
		p.out--
	}
}

// Data returns the valid bytes of this single mbuf (not the chain).
func (m *Mbuf) Data() []byte { return m.buf[m.off : m.off+m.n] }

// Next returns the following mbuf in the chain, or nil.
func (m *Mbuf) Next() *Mbuf { return m.next }

// Chain is a sequence of mbufs holding one message. The zero value is an
// empty chain. A Chain is not safe for concurrent use.
type Chain struct {
	poison     poison // released-at stack under the race detector; empty otherwise
	head, tail *Mbuf
	count      int
	length     int

	// TC/TCAt carry the causal-trace context of the message this chain
	// holds: TC identifies the sampled trace (zero when untraced) and
	// TCAt is the sim time the chain entered the current segment, so
	// the layer that consumes it can record a transit span. They are
	// metadata, not payload — Release clears them with the rest of the
	// chain state.
	TC   trace.Context
	TCAt time.Duration

	pool   *Pool // where Release returns the chain, and mbufs added to it come from
	pooled bool  // drawn from a free list: pool's, or the shared one
}

// FromBytes builds a chain from p as Pool.FromBytes does, from the
// shared free lists; a machine's data path draws from its own Pool.
func FromBytes(p []byte) *Chain { return (*Pool)(nil).FromBytes(p) }

// FromBytesSplit builds a chain from p forcing each mbuf to carry at
// most per bytes. Tests and benchmarks use it to control the chain
// length that the per-mbuf cost terms depend on.
func FromBytesSplit(p []byte, per int) *Chain {
	if per <= 0 {
		per = MLEN
	}
	c := (*Pool)(nil).newChain()
	for len(p) > 0 {
		n := per
		if n > len(p) {
			n = len(p)
		}
		m := c.pool.alloc(n)
		copy(m.buf[m.off:], p[:n])
		m.n = n
		c.appendMbuf(m)
		p = p[n:]
	}
	return c
}

// Len returns the total number of valid bytes in the chain.
func (c *Chain) Len() int {
	if c == nil {
		return 0
	}
	c.poison.check()
	return c.length
}

// Count returns the number of mbufs in the chain. This is the "#mbufs"
// of Table 1.
func (c *Chain) Count() int {
	if c == nil {
		return 0
	}
	c.poison.check()
	return c.count
}

// Head returns the first mbuf, or nil for an empty chain.
func (c *Chain) Head() *Mbuf {
	if c == nil {
		return nil
	}
	c.poison.check()
	return c.head
}

func (c *Chain) appendMbuf(m *Mbuf) {
	c.poison.check()
	if c.head == nil {
		c.head = m
	} else {
		c.tail.next = m
	}
	c.tail = m
	c.count++
	c.length += m.n
}

// AppendBytes copies p onto the end of the chain, allocating mbufs with
// the standard policy.
func (c *Chain) AppendBytes(p []byte) {
	for len(p) > 0 {
		var cap int
		if len(p) >= clusterThreshold {
			cap = MCLBYTES
		} else {
			cap = MLEN
		}
		n := cap
		if n > len(p) {
			n = len(p)
		}
		m := c.pool.alloc(n)
		copy(m.buf[m.off:], p[:n])
		m.n = n
		c.appendMbuf(m)
		p = p[n:]
	}
}

// Prepend attaches hdr at the front of the chain, using the leading
// space of the first mbuf when it fits (the fast path M_PREPEND takes)
// and allocating a new mbuf otherwise.
func (c *Chain) Prepend(hdr []byte) {
	c.poison.check()
	if len(hdr) == 0 {
		return
	}
	if c.head != nil && c.head.off >= len(hdr) {
		c.head.off -= len(hdr)
		copy(c.head.buf[c.head.off:], hdr)
		c.head.n += len(hdr)
		c.length += len(hdr)
		return
	}
	m := c.pool.alloc(len(hdr))
	copy(m.buf[m.off:], hdr)
	m.n = len(hdr)
	m.next = c.head
	c.head = m
	if c.tail == nil {
		c.tail = m
	}
	c.count++
	c.length += len(hdr)
}

// TrimFront removes n bytes from the front of the chain, freeing emptied
// mbufs. It removes fewer bytes only if the chain is shorter than n; it
// returns the number of bytes removed.
func (c *Chain) TrimFront(n int) int {
	c.poison.check()
	removed := 0
	for n > 0 && c.head != nil {
		m := c.head
		take := n
		if take > m.n {
			take = m.n
		}
		m.off += take
		m.n -= take
		c.length -= take
		removed += take
		n -= take
		if m.n == 0 {
			c.head = m.next
			c.count--
			if c.head == nil {
				c.tail = nil
			}
		}
	}
	return removed
}

// Bytes flattens the chain into a single contiguous slice (copying).
func (c *Chain) Bytes() []byte {
	if c.Len() == 0 {
		return nil
	}
	return c.AppendTo(make([]byte, 0, c.length))
}

// AppendTo appends the chain's bytes to dst without consuming them, so
// a receive loop can flatten every message into one reused buffer.
func (c *Chain) AppendTo(dst []byte) []byte {
	for m := c.Head(); m != nil; m = m.next {
		dst = append(dst, m.Data()...)
	}
	return dst
}

// CopyTo copies up to len(p) bytes from the front of the chain into p
// without consuming them, returning the number copied.
func (c *Chain) CopyTo(p []byte) int {
	n := 0
	for m := c.Head(); m != nil && n < len(p); m = m.next {
		n += copy(p[n:], m.Data())
	}
	return n
}

// Pullup ensures the first n bytes of the chain are contiguous in the
// first mbuf, so a header may be read with a single slice. It returns
// false if the chain holds fewer than n bytes.
func (c *Chain) Pullup(n int) bool {
	c.poison.check()
	if n <= 0 {
		return true
	}
	if c.length < n {
		return false
	}
	if c.head != nil && c.head.n >= n {
		return true
	}
	// Gather n bytes into a fresh mbuf.
	m := c.pool.alloc(n)
	got := 0
	for got < n {
		h := c.head
		take := n - got
		if take > h.n {
			take = h.n
		}
		copy(m.buf[m.off+got:], h.Data()[:take])
		got += take
		h.off += take
		h.n -= take
		c.length -= take
		if h.n == 0 {
			c.head = h.next
			c.count--
			if c.head == nil {
				c.tail = nil
			}
		}
	}
	m.n = n
	m.next = c.head
	c.head = m
	if c.tail == nil {
		c.tail = m
	}
	c.count++
	c.length += n
	return true
}

// Clone returns a deep copy of the chain with the same mbuf boundaries.
// The copy is drawn from the same pool.
func (c *Chain) Clone() *Chain {
	out := c.pool.newChain()
	for m := c.Head(); m != nil; m = m.next {
		nm := out.pool.alloc(m.n)
		copy(nm.buf[nm.off:], m.Data())
		nm.n = m.n
		out.appendMbuf(nm)
	}
	return out
}

// String summarizes the chain for debugging.
func (c *Chain) String() string {
	if c == nil {
		return "mbuf.Chain(nil)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mbuf.Chain{len=%d count=%d:", c.length, c.count)
	for m := c.head; m != nil; m = m.next {
		fmt.Fprintf(&b, " %d", m.n)
	}
	b.WriteString("}")
	return b.String()
}
