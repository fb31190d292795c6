package memnet

import (
	"testing"
	"time"

	"xunet/internal/mbuf"
	"xunet/internal/sim"
)

// Edge cases for the stream transport beyond the main suite.

func TestSimultaneousClose(t *testing.T) {
	e, _, h, r := twoNodes(t)
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
	if len(h.streams.conns) != 0 || len(r.streams.conns) != 0 {
		t.Fatalf("lingering conns: %d/%d", len(h.streams.conns), len(r.streams.conns))
	}
}

func TestSendAfterLocalClose(t *testing.T) {
	e, _, h, r := twoNodes(t)
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
}

// forge puts a hand-built segment on the wire from nd, outside any
// connection.
func forge(nd *Node, dst IPAddr, seg segment) {
	hdr := seg.header()
	_ = nd.SendChain(dst, ProtoStream, mbuf.FromBytes(append(hdr[:], seg.data...)))
}

func TestDataToClosedConnDrawsRST(t *testing.T) {
	e, _, h, r := twoNodes(t)
	// Craft a DATA segment for a connection that does not exist.
	forge(h, r.Addr, segment{flags: flagDATA, sport: 999, dport: 888, seq: 1, data: []byte("stray")})
	e.Run()
	// The RST comes back to h and finds no connection either; it must
	// NOT provoke a counter-RST storm. Count stream packets on the wire.
	sentHR, _, _ := h.LinkTo(r).Stats()
	sentRH, _, _ := r.LinkTo(h).Stats()
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

func TestLargeMessages(t *testing.T) {
	e, _, h, r := twoNodes(t)
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
}

func TestManyConcurrentConnections(t *testing.T) {
	e, _, h, r := twoNodes(t)
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
