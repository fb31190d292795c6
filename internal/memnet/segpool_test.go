package memnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"xunet/internal/faults"
	"xunet/internal/sim"
)

// Stream segments travel in records recycled through per-node free
// lists (segPkt). These tests cover each way that could go wrong: a
// record reused while something still points at it, returned twice, or
// not returned.

// pooledRecords walks every node's free list and returns the number of
// records on them, failing if any record is listed twice.
func pooledRecords(t *testing.T, nodes ...*Node) int {
	t.Helper()
	seen := make(map[*segPkt]bool)
	for _, nd := range nodes {
		for r := nd.segFree; r != nil; r = r.next {
			if seen[r] {
				t.Fatalf("record %p is on a free list twice", r)
			}
			seen[r] = true
			if r.chain.Len() != 0 || r.seg != nil {
				t.Fatalf("record %p was returned without being emptied", r)
			}
		}
	}
	return len(seen)
}

// echoPair starts a server on r that counts what it receives and a
// client on h connected to it.
func echoPair(t *testing.T, e *sim.Engine, h, r *Node) (cli *Stream, got *[]string) {
	t.Helper()
	l, err := r.ListenStream(5000)
	if err != nil {
		t.Fatal(err)
	}
	got = new([]string)
	e.Go("server", func(p *sim.Proc) {
		s, ok := l.Accept(p)
		if !ok {
			return
		}
		for {
			msg, ok := s.Recv(p)
			if !ok {
				return
			}
			*got = append(*got, string(msg))
		}
	})
	e.Go("client", func(p *sim.Proc) {
		cli, err = h.DialStream(p, r.Addr, 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	e.RunFor(time.Second)
	if cli == nil {
		t.Fatal("client never connected")
	}
	return cli, got
}

// A warm message costs its two payload copies — Send's, because the
// caller may reuse its buffer, and the receiver's, because the inbox
// keeps it — and nothing else: no packet, chain, header buffer, closure
// or waiter. Loopback and a real link take different scheduling paths.
func TestStreamMessageSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	for _, loopback := range []bool{true, false} {
		e, _, h, r := twoNodes(t)
		if loopback {
			r = h
		}
		cli, got := echoPair(t, e, h, r)
		msg := make([]byte, 64)
		send := func() {
			_ = cli.Send(msg)
			e.RunFor(10 * time.Millisecond)
		}
		send() // warm the free lists and rings
		*got = nil
		if avg := testing.AllocsPerRun(100, send); avg > 3 { // 2 + append(*got) amortized
			t.Errorf("loopback=%v: a warm stream message allocates %.2f times, want its 2 payload copies", loopback, avg)
		}
		e.Shutdown()
	}
}

// The fault plane's duplicate must be a private copy: the original's
// record is back on a free list — and already carrying the ACK — by the
// time the duplicate lands.
func TestDupOfPooledSegmentIsPrivate(t *testing.T) {
	e, _, h, r := faultyPair(t, faults.Config{Seed: 7, PktDup: 1})
	var arrived [][]byte // every DATA payload reaching r, duplicates included
	input := r.protos[ProtoStream]
	r.BindProto(ProtoStream, func(pkt *Packet) {
		if b := pkt.Payload.Bytes(); b[0]&flagDATA != 0 {
			arrived = append(arrived, b[segHeaderSize:])
		}
		input(pkt)
	})
	cli, got := echoPair(t, e, h, r)
	const count = 40
	for i := 0; i < count; i++ {
		_ = cli.Send([]byte(fmt.Sprintf("message-%04d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, 150))))
		e.RunFor(time.Millisecond)
	}
	e.RunFor(time.Second)
	if len(*got) != count {
		t.Fatalf("delivered %d of %d", len(*got), count)
	}
	if len(arrived) != 2*count {
		t.Fatalf("%d DATA segments arrived, want each of %d twice", len(arrived), count)
	}
	copies := make(map[string]int)
	for _, b := range arrived {
		copies[string(b)]++
	}
	for i, want := range *got {
		if copies[want] != 2 {
			t.Fatalf("message %d arrived intact %d times, want 2", i, copies[want])
		}
	}
	pooledRecords(t, h, r)
	e.Shutdown()
}

// abort with a window of segments still on the wire: they land on a
// torn-down connection, draw RSTs, and every record comes back once.
func TestAbortWithSegmentsInFlight(t *testing.T) {
	e, _, h, r := twoNodes(t)
	cli, _ := echoPair(t, e, h, r)
	for i := 0; i < streamWindow+8; i++ {
		_ = cli.Send([]byte("in flight"))
	}
	cli.abort(true)
	e.RunFor(5 * time.Second)
	if len(h.streams.conns) != 0 || len(r.streams.conns) != 0 {
		t.Fatalf("lingering conns: %d/%d", len(h.streams.conns), len(r.streams.conns))
	}
	pooledRecords(t, h, r)
	// The returned records carry a second connection intact.
	var echoed []byte
	l, _ := r.ListenStream(5001)
	e.Go("server2", func(p *sim.Proc) {
		s, _ := l.Accept(p)
		echoed, _ = s.Recv(p)
	})
	e.Go("client2", func(p *sim.Proc) {
		s, err := h.DialStream(p, r.Addr, 5001)
		if err != nil {
			t.Errorf("second dial: %v", err)
			return
		}
		_ = s.Send([]byte("after the abort"))
	})
	e.RunFor(time.Second)
	if string(echoed) != "after the abort" {
		t.Fatalf("second connection delivered %q", echoed)
	}
	pooledRecords(t, h, r)
	e.Shutdown()
}

// A segment dropped on the way — link loss, fault-plane loss, TTL
// expiry, no route, no handler — returns its record exactly once, to
// the node that dropped it.
func TestDroppedSegmentsReturnRecordOnce(t *testing.T) {
	seg := segment{flags: flagDATA, sport: 1, dport: 2, seq: 1, data: []byte("doomed")}
	drops := map[string]func(t *testing.T) (e *sim.Engine, nodes []*Node, send func()){
		"link loss": func(t *testing.T) (*sim.Engine, []*Node, func()) {
			e, _, h, r := twoNodes(t)
			h.LinkTo(r).SetLoss(1)
			return e, []*Node{h, r}, func() { h.sendSegment(r.Addr, seg) }
		},
		"fault-plane loss": func(t *testing.T) (*sim.Engine, []*Node, func()) {
			e, _, h, r := faultyPair(t, faults.Config{Seed: 3, PktLoss: 1})
			return e, []*Node{h, r}, func() { h.sendSegment(r.Addr, seg) }
		},
		"ttl": func(t *testing.T) (*sim.Engine, []*Node, func()) {
			// Default routes point at each other: an unknown
			// destination bounces until its TTL runs out.
			e, _, h, r := twoNodes(t)
			return e, []*Node{h, r}, func() { h.sendSegment(IP4(9, 9, 9, 9), seg) }
		},
		"no route": func(t *testing.T) (*sim.Engine, []*Node, func()) {
			e := sim.New(1)
			lone := New(e).MustAddNode("lone", IP4(10, 0, 0, 9))
			return e, []*Node{lone}, func() { lone.sendSegment(IP4(9, 9, 9, 9), seg) }
		},
		"no handler": func(t *testing.T) (*sim.Engine, []*Node, func()) {
			e, _, h, r := twoNodes(t)
			delete(r.protos, ProtoStream)
			return e, []*Node{h, r}, func() { h.sendSegment(r.Addr, seg) }
		},
	}
	for name, build := range drops {
		t.Run(name, func(t *testing.T) {
			e, nodes, send := build(t)
			send()
			e.Run()
			if n := pooledRecords(t, nodes...); n != 1 {
				t.Fatalf("%d records on the free lists after one dropped segment, want 1", n)
			}
			// Whichever node holds the record, a segment sent from
			// there reuses it, and it comes back once again.
			for _, nd := range nodes {
				if nd.segFree != nil {
					nd.sendSegment(IP4(9, 9, 9, 9), seg)
				}
			}
			e.Run()
			if n := pooledRecords(t, nodes...); n != 1 {
				t.Fatalf("%d records on the free lists after reuse, want 1", n)
			}
		})
	}
}
