package mbuf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

func TestFromBytesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, MLEN - 1, MLEN, MLEN + 1, clusterThreshold, mclBytes, mclBytes + 1, 9000} {
		p := payload(n)
		c := FromBytes(p)
		if c.Len() != n {
			t.Errorf("n=%d: Len = %d", n, c.Len())
		}
		if !bytes.Equal(c.Bytes(), p) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestFromBytesAllocationPolicy(t *testing.T) {
	// Small message: small mbufs.
	c := FromBytes(payload(MLEN + 10))
	if c.Count() != 2 {
		t.Errorf("small message count = %d, want 2", c.Count())
	}
	// Large message: cluster mbufs.
	c = FromBytes(payload(mclBytes * 2))
	if c.Count() != 2 {
		t.Errorf("cluster message count = %d, want 2", c.Count())
	}
}

func TestFromBytesSplit(t *testing.T) {
	p := payload(100)
	c := FromBytesSplit(p, 10)
	if c.Count() != 10 {
		t.Fatalf("count = %d, want 10", c.Count())
	}
	if !bytes.Equal(c.Bytes(), p) {
		t.Fatal("data mismatch")
	}
	// Non-positive per falls back to MLEN.
	c = FromBytesSplit(p, 0)
	if c.Count() != 1 {
		t.Fatalf("fallback count = %d, want 1", c.Count())
	}
}

func TestPrependFastPath(t *testing.T) {
	c := FromBytes(payload(50))
	before := c.Count()
	c.Prepend([]byte{0xAA, 0xBB})
	if c.Count() != before {
		t.Errorf("small prepend allocated a new mbuf (count %d -> %d)", before, c.Count())
	}
	got := c.Bytes()
	if got[0] != 0xAA || got[1] != 0xBB {
		t.Errorf("prepended bytes wrong: % x", got[:2])
	}
	if c.Len() != 52 {
		t.Errorf("Len = %d, want 52", c.Len())
	}
}

func TestPrependSlowPath(t *testing.T) {
	c := FromBytes(payload(10))
	big := payload(64) // exceeds leadingSpace
	c.Prepend(big)
	if c.Count() != 2 {
		t.Errorf("large prepend count = %d, want 2", c.Count())
	}
	if !bytes.Equal(c.Bytes()[:64], big) {
		t.Error("prepended header corrupted")
	}
}

func TestPrependEmptyChain(t *testing.T) {
	c := FromBytes(nil)
	c.Prepend([]byte{1, 2, 3})
	if c.Len() != 3 || c.Count() != 1 {
		t.Fatalf("len=%d count=%d", c.Len(), c.Count())
	}
	if !bytes.Equal(c.Bytes(), []byte{1, 2, 3}) {
		t.Fatal("bytes mismatch")
	}
}

func TestTrimFront(t *testing.T) {
	p := payload(300)
	c := FromBytesSplit(p, 100)
	if got := c.TrimFront(150); got != 150 {
		t.Fatalf("TrimFront = %d, want 150", got)
	}
	if c.Len() != 150 || c.Count() != 2 {
		t.Fatalf("after trim len=%d count=%d", c.Len(), c.Count())
	}
	if !bytes.Equal(c.Bytes(), p[150:]) {
		t.Fatal("remaining data mismatch")
	}
	// Trimming more than remains empties the chain.
	if got := c.TrimFront(1000); got != 150 {
		t.Fatalf("over-trim removed %d, want 150", got)
	}
	if c.Len() != 0 || c.Count() != 0 || c.Head() != nil {
		t.Fatal("chain not empty after over-trim")
	}
}

func TestPullup(t *testing.T) {
	p := payload(100)
	c := FromBytesSplit(p, 10)
	if !c.Pullup(35) {
		t.Fatal("Pullup(35) failed")
	}
	if c.Head().Len() < 35 {
		t.Fatalf("first mbuf has %d bytes, want >= 35", c.Head().Len())
	}
	if !bytes.Equal(c.Bytes(), p) {
		t.Fatal("data corrupted by Pullup")
	}
	if c.Len() != 100 {
		t.Fatalf("length changed to %d", c.Len())
	}
}

func TestPullupAlreadyContiguous(t *testing.T) {
	c := FromBytes(payload(50))
	before := c.Count()
	if !c.Pullup(20) {
		t.Fatal("Pullup failed")
	}
	if c.Count() != before {
		t.Error("Pullup on contiguous data reallocated")
	}
}

func TestPullupTooShort(t *testing.T) {
	c := FromBytes(payload(10))
	if c.Pullup(11) {
		t.Fatal("Pullup(11) on a 10-byte chain succeeded")
	}
}

func TestCopyTo(t *testing.T) {
	p := payload(100)
	c := FromBytesSplit(p, 7)
	buf := make([]byte, 40)
	if n := c.CopyTo(buf); n != 40 {
		t.Fatalf("CopyTo = %d, want 40", n)
	}
	if !bytes.Equal(buf, p[:40]) {
		t.Fatal("copied data mismatch")
	}
	if c.Len() != 100 {
		t.Fatal("CopyTo consumed data")
	}
	big := make([]byte, 200)
	if n := c.CopyTo(big); n != 100 {
		t.Fatalf("CopyTo big = %d, want 100", n)
	}
}

func TestClone(t *testing.T) {
	c := FromBytesSplit(payload(64), 16)
	d := c.Clone()
	if d.Len() != c.Len() || d.Count() != c.Count() {
		t.Fatalf("clone shape %d/%d, want %d/%d", d.Len(), d.Count(), c.Len(), c.Count())
	}
	c.TrimFront(10)
	if d.Len() != 64 {
		t.Fatal("clone shares storage bookkeeping with original")
	}
	if !bytes.Equal(d.Bytes(), payload(64)) {
		t.Fatal("clone data mismatch")
	}
}

func TestNilChainAccessors(t *testing.T) {
	var c *Chain
	if c.Len() != 0 || c.Count() != 0 || c.Head() != nil || c.Bytes() != nil {
		t.Fatal("nil chain accessors not zero")
	}
	if c.String() != "mbuf.Chain(nil)" {
		t.Fatalf("nil String = %q", c.String())
	}
}

func TestStringFormat(t *testing.T) {
	c := FromBytesSplit(payload(20), 10)
	s := c.String()
	if s != "mbuf.Chain{len=20 count=2: 10 10}" {
		t.Fatalf("String = %q", s)
	}
}

// Property: any sequence of prepend/append/trim/pullup operations keeps Len equal
// to the byte length of Bytes() and Count equal to the walked mbuf count.
func TestQuickInvariants(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := FromBytes(nil)
		model := []byte{}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				n := rng.Intn(300)
				p := payload(n)
				c.AppendBytes(p)
				model = append(model, p...)
			case 1:
				n := rng.Intn(20)
				h := payload(n)
				c.Prepend(h)
				model = append(append([]byte{}, h...), model...)
			case 2:
				n := rng.Intn(50)
				c.TrimFront(n)
				if n > len(model) {
					n = len(model)
				}
				model = model[n:]
			case 3:
				n := rng.Intn(40)
				c.Pullup(n) // no data change regardless of success
			}
			if c.Len() != len(model) {
				return false
			}
			if !bytes.Equal(c.Bytes(), model) {
				return false
			}
			walked := 0
			for m := c.Head(); m != nil; m = m.next {
				walked++
				if m.Len() == 0 {
					return false // no empty mbufs may linger
				}
			}
			if walked != c.Count() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFromBytes1500(b *testing.B) {
	p := payload(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromBytes(p)
	}
}

func BenchmarkPrepend(b *testing.B) {
	hdr := payload(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := FromBytes(hdr)
		c.Prepend(hdr)
	}
}

// sink makes a chain escape, as every chain on the data path does.
var sink *Chain

// A released header goes back to its pool's free list with its mbufs:
// a chain built and released in a loop allocates nothing once the lists
// are warm, even when it escapes. A nil pool keeps no list: each chain
// it builds is a fresh header, mbuf and buffer, left to the collector.
func TestReleaseRecyclesHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector poisons released headers instead of recycling them")
	}
	p := payload(40)
	for _, c := range []struct {
		pool *Pool
		want float64
	}{{new(Pool), 0}, {nil, 3}} {
		if avg := testing.AllocsPerRun(100, func() {
			sink = c.pool.FromBytes(p)
			sink.Release()
		}); avg != c.want {
			t.Fatalf("build and release from pool %p allocates %.1f times, want %.0f", c.pool, avg, c.want)
		}
	}
}

// outs reads p's audit: the mbufs, clusters and chains it has out.
func outs(p *Pool) (got []int) {
	p.Audit(func(_ string, out, _ int) { got = append(got, out) })
	return got
}

// A chain goes home wherever it ends, as a memnet packet record does:
// drawn from one machine's pool, grown by another's code and released
// there, every header and mbuf it holds returns to the pool it came
// from, and the other pool is untouched by it. An mbuf Pullup empties
// goes back at once.
func TestChainReturnsToItsPool(t *testing.T) {
	home, away := new(Pool), new(Pool)
	c := home.FromBytes(payload(MLEN))
	c.Prepend(payload(leadingSpace + 1)) // too long for the leading space: a new mbuf
	c.AppendBytes(payload(clusterThreshold))
	c.Pullup(MLEN) // gathers into a third small mbuf, emptying the prepended one
	d := c.Clone() // reuses the emptied mbuf
	other := away.FromBytes(payload(1))
	if got := outs(home); !slices.Equal(got, []int{4, 2, 2}) {
		t.Fatalf("home has %v mbufs, clusters, chains out; want [4 2 2]", got)
	}
	if got := outs(away); !slices.Equal(got, []int{1, 0, 1}) {
		t.Fatalf("away has %v out; want [1 0 1]", got)
	}
	c.Release()
	d.Release()
	other.Release()
	for _, p := range []*Pool{home, away} {
		if got := outs(p); !slices.Equal(got, []int{0, 0, 0}) {
			t.Fatalf("after Release a pool has %v out; want none", got)
		}
	}
	if all, made := home.mbufs[0].Draws(); all != 5 || made != 4 {
		t.Fatalf("home drew %d small mbufs and made %d; want 5 and 4", all, made)
	}
	if _, made := away.mbufs[0].Draws(); made != 1 {
		t.Fatalf("away made %d small mbufs; want only its own chain's", made)
	}
}

// releaseHere is the frame a poisoned chain's panic must name.
func releaseHere(c *Chain) { c.Release() }

// Under the race detector a released chain is poisoned: any use, and a
// second Release, panics with the stack that released it.
func TestReleasedChainPanics(t *testing.T) {
	if !raceEnabled {
		t.Skip("released chains are poisoned only under the race detector")
	}
	uses := map[string]func(c *Chain){
		"Len":            func(c *Chain) { c.Len() },
		"Count":          func(c *Chain) { c.Count() },
		"Head":           func(c *Chain) { c.Head() },
		"Bytes":          func(c *Chain) { c.Bytes() },
		"AppendTo":       func(c *Chain) { c.AppendTo(nil) },
		"CopyTo":         func(c *Chain) { c.CopyTo(make([]byte, 4)) },
		"AppendBytes":    func(c *Chain) { c.AppendBytes([]byte{1}) },
		"Prepend":        func(c *Chain) { c.Prepend([]byte{1}) },
		"TrimFront":      func(c *Chain) { c.TrimFront(1) },
		"Pullup":         func(c *Chain) { c.Pullup(1) },
		"Clone":          func(c *Chain) { c.Clone() },
		"second Release": func(c *Chain) { c.Release() },
	}
	for _, pool := range []*Pool{nil, new(Pool)} {
		for name, use := range uses {
			c := pool.FromBytes(payload(300))
			releaseHere(c)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				use(c)
				return "no panic"
			}()
			if !strings.Contains(msg, "used after Release") || !strings.Contains(msg, "mbuf.releaseHere") {
				t.Errorf("pool %p: %s after Release: got %q, want a panic naming the releasing stack", pool, name, msg)
			}
		}
		if pool == nil {
			continue
		}
		if all, made := pool.chains.Draws(); pool.chains.Outstanding() != 0 || all != made {
			t.Errorf("owned pool: %d chains out, %d headers recycled; want 0 and 0", pool.chains.Outstanding(), all-made)
		}
	}
}
