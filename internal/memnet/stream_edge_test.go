package memnet

import (
	"testing"
	"time"

	"xunet/internal/mbuf"
	"xunet/internal/sim"
)

// Edge cases for the stream transport beyond the main suite.

func TestSimultaneousClose(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		var srvDone, cliDone bool
		e.Go("server", func(p *sim.Proc) {
			s, _ := l.Accept(p)
			p.Sleep(10 * time.Millisecond)
			s.Close()
			srvDone = true
		})
		e.Go("client", func(p *sim.Proc) {
			s, err := h.DialStream(p, r.Addr, 5000)
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(10 * time.Millisecond)
			s.Close() // both sides close at the same virtual instant
			cliDone = true
		})
		e.Run()
		if !srvDone || !cliDone {
			t.Fatal("closes did not complete")
		}
		// No lingering connections on either node.
		if h.streams.conns.Len() != 0 || r.streams.conns.Len() != 0 {
			t.Fatalf("lingering conns: %d/%d", h.streams.conns.Len(), r.streams.conns.Len())
		}
	})
}

func TestSendAfterLocalClose(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		e.Go("server", func(p *sim.Proc) {
			s, _ := l.Accept(p)
			for {
				if _, ok := s.Recv(p); !ok {
					return
				}
			}
		})
		var err error
		e.Go("client", func(p *sim.Proc) {
			s, _ := h.DialStream(p, r.Addr, 5000)
			s.Close()
			err = s.Send([]byte("late"))
		})
		e.Run()
		if err != ErrStreamClosed {
			t.Fatalf("err = %v", err)
		}
	})
}

// forge puts a hand-built segment on the wire from nd, outside any
// connection.
func forge(nd *Node, dst IPAddr, seg segment) {
	hdr := seg.header()
	_ = nd.SendChain(dst, protoStream, mbuf.FromBytes(append(hdr[:], seg.data...)))
}

func TestDataToClosedConnDrawsRST(t *testing.T) {
	e, _, h, r := twoNodes(t)
	// Craft a DATA segment for a connection that does not exist.
	forge(h, r.Addr, segment{flags: flagDATA, sport: 999, dport: 888, seq: 1, data: []byte("stray")})
	e.Run()
	// The RST comes back to h and finds no connection either; it must
	// NOT provoke a counter-RST storm. Count stream packets on the wire.
	sentHR, _ := h.LinkTo(r).Stats()
	sentRH, _ := r.LinkTo(h).Stats()
	if sentHR != 1 || sentRH != 1 {
		t.Fatalf("packets h->r=%d r->h=%d, want exactly 1 each (no RST storm)", sentHR, sentRH)
	}
}

// An ACK for sequence numbers never sent — forged, or a stale segment
// landing on a reused connection key — must be dropped: acting on it
// walked the window up to 2³² steps and left every later message
// unacknowledgeable.
func TestAckBeyondSendSeqIsDropped(t *testing.T) {
	e, _, h, r := twoNodes(t)
	l, _ := r.ListenStream(5000)
	var got []string
	e.Go("server", func(p *sim.Proc) {
		s, _ := l.Accept(p)
		for {
			msg, ok := s.Recv(p)
			if !ok {
				return
			}
			got = append(got, string(msg))
		}
	})
	var cli *Stream
	e.Go("client", func(p *sim.Proc) {
		cli, _ = h.DialStream(p, r.Addr, 5000)
		_ = cli.Send([]byte("one"))
		p.Sleep(10 * time.Millisecond)
		forge(r, h.Addr, segment{flags: flagACK, sport: 5000, dport: cli.LocalPort(), ack: 0xF0000000})
		p.Sleep(10 * time.Millisecond)
		_ = cli.Send([]byte("two"))
	})
	e.RunUntil(5 * time.Second)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("server received %q, want [one two]", got)
	}
	if cli.Reset() || cli.inFlight() != 0 || cli.Retransmits != 0 {
		t.Fatalf("window stranded: reset=%v inFlight=%d retransmits=%d", cli.Reset(), cli.inFlight(), cli.Retransmits)
	}
	e.Shutdown()
}

// A DATA or FIN segment further ahead of recvNext than the window —
// forged, or stale on a reused connection key — is dropped, and still
// ACKed: buffered, it sat in ooo for the connection's whole life.
func TestSegmentBeyondWindowIsDropped(t *testing.T) {
	e, _, h, r := twoNodes(t)
	l, _ := r.ListenStream(5000)
	var srv *Stream
	var got []string
	e.Go("server", func(p *sim.Proc) {
		srv, _ = l.Accept(p)
		for {
			msg, ok := srv.Recv(p)
			if !ok {
				return
			}
			got = append(got, string(msg))
		}
	})
	var acks uint64
	e.Go("client", func(p *sim.Proc) {
		cli, _ := h.DialStream(p, r.Addr, 5000)
		_ = cli.Send([]byte("one"))
		p.Sleep(10 * time.Millisecond)
		before, _ := r.LinkTo(h).Stats()
		far := srv.recvNext + streamWindow + 1
		forge(h, r.Addr, segment{flags: flagDATA, sport: cli.LocalPort(), dport: 5000, seq: far, data: []byte("far")})
		forge(h, r.Addr, segment{flags: flagFIN, sport: cli.LocalPort(), dport: 5000, seq: far + 1})
		p.Sleep(10 * time.Millisecond)
		after, _ := r.LinkTo(h).Stats()
		acks = after - before
		_ = cli.Send([]byte("two"))
	})
	e.RunUntil(5 * time.Second)
	if srv.ooo != nil {
		t.Fatalf("segments beyond the window were buffered: ooo=%v", srv.ooo)
	}
	if acks != 2 {
		t.Fatalf("%d ACKs for the two dropped segments, want 2", acks)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "two" || srv.remoteClosed {
		t.Fatalf("server received %q (closed %v), want [one two] on an open stream", got, srv.remoteClosed)
	}
	e.Shutdown()
}

// On the loopback an ACK that nothing waits on is applied in place: a
// request and its reply cost two DATA arrivals and two reader wake-ups,
// no ACK event, and leave no retransmit timer pending. An ACK that frees
// window space stays an event, and so does the ACK that completes a
// close: the second teardown hook runs in a later event at the same
// virtual instant, also when both ends close at once. A segment from a
// stream whose peer is gone falls through to conns and draws an RST.
func TestLoopbackAcksInPlace(t *testing.T) {
	e, _, h, _ := twoNodes(t)
	l, _ := h.ListenStream(5000)
	type mark struct {
		at     time.Duration
		events uint64
	}
	var srv, cli *Stream
	var replies []string
	var srvDown, cliDown []mark
	e.Go("server", func(p *sim.Proc) {
		srv, _ = l.Accept(p)
		srv.SetTeardown(func(bool) { srvDown = append(srvDown, mark{e.Now(), e.EventsExecuted()}) })
		for {
			msg, ok := srv.Recv(p)
			if !ok {
				srv.Close()
				return
			}
			_ = srv.Send(msg)
		}
	})
	e.Go("client", func(p *sim.Proc) {
		cli, _ = h.DialStream(p, h.Addr, 5000)
		cli.SetTeardown(func(bool) { cliDown = append(cliDown, mark{e.Now(), e.EventsExecuted()}) })
		for {
			msg, ok := cli.Recv(p)
			if !ok {
				return
			}
			replies = append(replies, string(msg))
		}
	})
	e.RunFor(time.Second)

	before := e.EventsExecuted()
	_ = cli.Send([]byte("request"))
	e.RunFor(time.Second)
	if len(replies) != 1 || replies[0] != "request" {
		t.Fatalf("replies %q", replies)
	}
	if n := e.EventsExecuted() - before; n != 4 {
		t.Fatalf("a request and its reply ran %d events, want 4: two DATA arrivals, two wake-ups", n)
	}
	for _, s := range []*Stream{cli, srv} {
		if s.inFlight() != 0 || s.rtimer.Stop() {
			t.Fatalf("port %d: %d in flight, or the retransmit timer was still pending", s.LocalPort(), s.inFlight())
		}
	}

	cli.Close()
	e.RunFor(time.Second)
	if len(cliDown) != 1 || len(srvDown) != 1 {
		t.Fatalf("teardown hooks ran %d and %d times", len(cliDown), len(srvDown))
	}
	if c, s := cliDown[0], srvDown[0]; s.at != c.at || s.events <= c.events {
		t.Fatalf("client torn down at %v in event %d, server at %v in event %d: want the same instant, a later event", c.at, c.events, s.at, s.events)
	}

	// A full window: an ACK that lands while it is full stays an event,
	// since a Send queued ahead of it — here the 33rd message, sent in
	// an event of its own — must wait for that ACK's event to go out.
	// That is 33 DATA arrivals, 32 ACKs, the Send and two reader
	// wake-ups; in place, the ACKs would let the Send go at once.
	l2, _ := h.ListenStream(5001)
	e.Go("reader", func(p *sim.Proc) {
		s, _ := l2.Accept(p)
		for {
			if _, ok := s.Recv(p); !ok {
				s.Close()
				return
			}
		}
	})
	var bulk *Stream
	e.Go("writer", func(p *sim.Proc) { bulk, _ = h.DialStream(p, h.Addr, 5001) })
	e.RunFor(time.Second)
	before = e.EventsExecuted()
	for i := 0; i < streamWindow; i++ {
		_ = bulk.Send([]byte("w"))
	}
	e.Schedule(0, func() { _ = bulk.Send([]byte("w")) })
	e.RunFor(time.Second)
	if n, want := e.EventsExecuted()-before, uint64(2*streamWindow+4); n != want || bulk.inFlight() != 0 {
		t.Fatalf("%d messages ran %d events (want %d), %d left in flight", streamWindow+1, n, want, bulk.inFlight())
	}
	bulk.Close()

	// Both ends close in one event: both FINs land before either
	// close-completing ACK, so the hooks run in the third and fourth
	// events after the closes, as they did when every ACK was an event.
	var a, b *Stream
	var closed uint64
	var hooks []uint64
	hook := func(bool) { hooks = append(hooks, e.EventsExecuted()) }
	e.Go("server3", func(p *sim.Proc) {
		b, _ = l.Accept(p)
		b.SetTeardown(hook)
	})
	e.Go("client3", func(p *sim.Proc) {
		a, _ = h.DialStream(p, h.Addr, 5000)
		a.SetTeardown(hook)
	})
	e.RunFor(time.Second)
	e.Schedule(0, func() {
		a.Close()
		b.Close()
		closed = e.EventsExecuted()
	})
	e.RunFor(time.Second)
	if len(hooks) != 2 || hooks[0] != closed+3 || hooks[1] != closed+4 {
		t.Fatalf("simultaneous close: teardown hooks ran in events %v, want %d and %d", hooks, closed+3, closed+4)
	}

	// The server end goes away without a word, so the client's data
	// finds no peer and no connection.
	var cli2 *Stream
	e.Go("server2", func(p *sim.Proc) {
		s, _ := l.Accept(p)
		s.abort(errStreamReset)
	})
	e.Go("client2", func(p *sim.Proc) {
		cli2, _ = h.DialStream(p, h.Addr, 5000)
	})
	e.RunFor(time.Second)
	if cli2.peer != nil {
		t.Fatal("the client still links a torn-down peer")
	}
	_ = cli2.Send([]byte("into the void"))
	e.RunFor(time.Second)
	if !cli2.Reset() || h.streams.conns.Len() != 0 {
		t.Fatalf("client reset %v, %d conns left", cli2.Reset(), h.streams.conns.Len())
	}
	e.Shutdown()
}

func TestLargeMessages(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		var got int
		e.Go("server", func(p *sim.Proc) {
			s, _ := l.Accept(p)
			for {
				msg, ok := s.Recv(p)
				if !ok {
					return
				}
				got += len(msg)
			}
		})
		const size = 512 * 1024
		e.Go("client", func(p *sim.Proc) {
			s, _ := h.DialStream(p, r.Addr, 5000)
			_ = s.Send(make([]byte, size))
			s.Close()
		})
		e.Run()
		if got != size {
			t.Fatalf("received %d of %d", got, size)
		}
	})
}

func TestManyConcurrentConnections(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		served := 0
		e.Go("server", func(p *sim.Proc) {
			for {
				s, ok := l.Accept(p)
				if !ok {
					return
				}
				conn := s
				e.Go("worker", func(w *sim.Proc) {
					if _, ok := conn.Recv(w); ok {
						served++
					}
					conn.Close()
				})
			}
		})
		const conns = 64
		for i := 0; i < conns; i++ {
			i := i
			e.Go("client", func(p *sim.Proc) {
				p.Sleep(time.Duration(i) * 100 * time.Microsecond)
				s, err := h.DialStream(p, r.Addr, 5000)
				if err != nil {
					t.Errorf("dial %d: %v", i, err)
					return
				}
				_ = s.Send([]byte{byte(i)})
				p.Sleep(50 * time.Millisecond)
				s.Close()
			})
		}
		e.RunUntil(10 * time.Second)
		if served != conns {
			t.Fatalf("served %d of %d", served, conns)
		}
		e.Shutdown()
	})
}

func BenchmarkStreamMessageThroughput(b *testing.B) {
	e := sim.New(1)
	n := New(e)
	h := n.MustAddNode("h", IP4(10, 0, 0, 1))
	r := n.MustAddNode("r", IP4(10, 0, 0, 2))
	n.Connect(h, r, FDDI())
	h.SetDefaultRoute(r)
	r.SetDefaultRoute(h)
	l, _ := r.ListenStream(5000)
	var got int
	e.Go("server", func(p *sim.Proc) {
		s, ok := l.Accept(p)
		if !ok {
			return
		}
		for {
			if _, ok := s.Recv(p); !ok {
				return
			}
			got++
		}
	})
	var cli *Stream
	e.Go("client", func(p *sim.Proc) {
		cli, _ = h.DialStream(p, r.Addr, 5000)
		p.Park()
	})
	e.RunFor(time.Second)
	payload := make([]byte, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cli.Send(payload)
		if i%64 == 63 {
			e.RunFor(10 * time.Millisecond)
		}
	}
	e.RunFor(10 * time.Second)
	b.StopTimer()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
	e.Shutdown()
}
