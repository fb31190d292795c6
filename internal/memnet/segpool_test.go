package memnet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"xunet/internal/faults"
	"xunet/internal/mbuf"
	"xunet/internal/sim"
)

// Packets travel in records recycled through per-node free lists, each
// record going home to the node that sent it. These tests cover each way
// that could go wrong: a record reused while something still points at
// it, returned twice, returned to the wrong list, or not returned.

// pooledRecords fails if any node has a packet record out, and returns
// the number of records the nodes' free lists have made: all of them
// are then back on their lists. A record returned twice panics under
// the race detector.
func pooledRecords(t *testing.T, nodes ...*Node) int {
	t.Helper()
	made := 0
	for _, nd := range nodes {
		if out := nd.pkts.Outstanding(); out != 0 {
			t.Fatalf("%s has %d packet records out", nd.Name, out)
		}
		_, n := nd.pkts.Draws()
		made += int(n)
	}
	return made
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

// A warm message costs its payload copies and nothing else: no packet,
// chain, header buffer, closure or waiter. Send copies because the
// caller may reuse its buffer; over a link the receiver copies too,
// because the inbox keeps what it is handed, while on the loopback the
// inbox gets the sender's copy, which nothing writes. The test's own
// string(msg) is the rest.
func TestStreamMessageSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		cli, got := echoPair(t, e, h, r)
		msg := make([]byte, 64)
		send := func() {
			_ = cli.Send(msg)
			e.RunFor(10 * time.Millisecond)
		}
		send() // warm the free lists and rings
		*got = nil
		ceiling := 3.0 // Send's copy, the receiver's, string(msg); append(*got) amortized
		if h == r {
			ceiling = 2
		}
		if avg := testing.AllocsPerRun(100, send); avg > ceiling {
			t.Errorf("a warm stream message allocates %.2f times, ceiling %.0f", avg, ceiling)
		}
		e.Shutdown()
	})
}

// The fault plane's duplicate must be a private copy: the original's
// record is back on a free list — and already carrying the ACK — by the
// time the duplicate lands.
func TestDupOfPooledSegmentIsPrivate(t *testing.T) {
	e, _, h, r := faultyPair(t, faults.Config{Seed: 7, PktDup: 1})
	var arrived [][]byte // every DATA payload reaching r, duplicates included
	input := r.protos[protoStream]
	r.BindProto(protoStream, func(pkt *Packet) {
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
	cli.sendSegment(flagRST, 0, 0, nil)
	cli.abort(errStreamReset)
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

// dropCases builds, for each way a packet can end before any handler —
// link loss, fault-plane loss, TTL expiry, no route, no handler — a
// network in which a stream segment or raw packet from "from" to dst
// ends that way.
var dropCases = map[string]func(t *testing.T) (e *sim.Engine, from *Node, dst IPAddr, nodes []*Node){
	"link loss": func(t *testing.T) (*sim.Engine, *Node, IPAddr, []*Node) {
		e, _, h, r := twoNodes(t)
		h.LinkTo(r).SetLoss(1)
		return e, h, r.Addr, []*Node{h, r}
	},
	"fault-plane loss": func(t *testing.T) (*sim.Engine, *Node, IPAddr, []*Node) {
		e, _, h, r := faultyPair(t, faults.Config{Seed: 3, PktLoss: 1})
		return e, h, r.Addr, []*Node{h, r}
	},
	"ttl": func(t *testing.T) (*sim.Engine, *Node, IPAddr, []*Node) {
		// Default routes point at each other: an unknown destination
		// bounces until its TTL runs out.
		e, _, h, r := twoNodes(t)
		return e, h, IP4(9, 9, 9, 9), []*Node{h, r}
	},
	"no route": func(t *testing.T) (*sim.Engine, *Node, IPAddr, []*Node) {
		e := sim.New(1)
		lone := New(e).MustAddNode("lone", IP4(10, 0, 0, 9))
		return e, lone, IP4(9, 9, 9, 9), []*Node{lone}
	},
	"no handler": func(t *testing.T) (*sim.Engine, *Node, IPAddr, []*Node) {
		e, _, h, r := twoNodes(t)
		r.protos[protoStream] = nil
		return e, h, r.Addr, []*Node{h, r}
	},
}

// A segment dropped on the way returns its record exactly once, to the
// node that sent it.
func TestDroppedSegmentsReturnRecordOnce(t *testing.T) {
	seg := segment{flags: flagDATA, sport: 1, dport: 2, seq: 1, data: []byte("doomed")}
	for name, build := range dropCases {
		t.Run(name, func(t *testing.T) {
			e, from, dst, nodes := build(t)
			from.sendSegment(dst, seg)
			e.Run()
			if n := pooledRecords(t, from); n != 1 {
				t.Fatalf("%d records on the sender's free list after one dropped segment, want 1", n)
			}
			// The sender's next segment reuses it, and it comes back
			// once again.
			from.sendSegment(dst, seg)
			e.Run()
			if n := pooledRecords(t, nodes...); n != 1 {
				t.Fatalf("%d records on the free lists after reuse, want 1", n)
			}
		})
	}
}

// released reports whether c was released: poisoned under the race
// detector, emptied without it (c is never empty when sent).
func released(c *mbuf.Chain) (yes bool) {
	defer func() {
		if recover() != nil {
			yes = true
		}
	}()
	return c.Head() == nil && c.Len() == 0
}

// Every drop releases the dropped packet's chain as well as returning
// its record: a chain handed to SendChain belongs to the network.
func TestDroppedPacketsReleasePayload(t *testing.T) {
	for name, build := range dropCases {
		t.Run(name, func(t *testing.T) {
			e, from, dst, _ := build(t)
			chain := mbuf.FromBytes([]byte("doomed"))
			_ = from.SendChain(dst, 200, chain)
			e.Run()
			if !released(chain) {
				t.Fatal("dropped packet's chain was not released")
			}
			if n := pooledRecords(t, from); n != 1 {
				t.Fatalf("%d records on the sender's free list, want 1", n)
			}
		})
	}
}

// A one-way flow never refills the receiver's list, so each record must
// go home to its sender: 10 000 packets from h to r, in bursts of 8,
// leave no more records than were ever in flight at once. Returned to
// the receiver's list instead, every packet would cost h a new record.
func TestOneWayPacketRecordsBounded(t *testing.T) {
	e, _, h, r := twoNodes(t)
	inFlight, most := 0, 0
	r.BindProto(200, func(pkt *Packet) {
		inFlight--
		pkt.Payload.Release()
	})
	payload := make([]byte, 40)
	for i := 0; i < 10000; i++ {
		_ = h.SendChain(r.Addr, 200, mbuf.FromBytes(payload))
		inFlight++
		most = max(most, inFlight)
		if i%8 == 7 {
			e.RunFor(time.Millisecond)
		}
	}
	e.Run()
	if inFlight != 0 {
		t.Fatalf("%d packets never arrived", inFlight)
	}
	if n := pooledRecords(t, h, r); n > most {
		t.Fatalf("%d records for a flow with at most %d in flight", n, most)
	}
}
