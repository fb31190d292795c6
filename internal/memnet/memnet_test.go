package memnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xunet/internal/cost"
	"xunet/internal/mbuf"
	"xunet/internal/sim"
)

// twoNodes builds host--router connected by FDDI.
func twoNodes(t *testing.T) (*sim.Engine, *Network, *Node, *Node) {
	t.Helper()
	e := sim.New(1)
	n := New(e)
	h := n.MustAddNode("host", IP4(10, 0, 0, 1))
	r := n.MustAddNode("router", IP4(10, 0, 0, 2))
	n.Connect(h, r, FDDI())
	h.SetDefaultRoute(r)
	r.SetDefaultRoute(h)
	return e, n, h, r
}

// forEachPair runs test over both paths a stream segment can take:
// across an FDDI link from host to router, and on the loopback, where the
// host dials itself and a segment goes straight to its peer.
func forEachPair(t *testing.T, test func(t *testing.T, e *sim.Engine, h, r *Node)) {
	for _, loopback := range []bool{false, true} {
		name := "link"
		if loopback {
			name = "loopback"
		}
		t.Run(name, func(t *testing.T) {
			e, _, h, r := twoNodes(t)
			if loopback {
				r = h
			}
			test(t, e, h, r)
		})
	}
}

// TestIPAddrString holds the strconv rendering to the dotted quad
// fmt.Sprintf printed, at the edges of every octet.
func TestIPAddrString(t *testing.T) {
	for _, a := range []IPAddr{IP4(10, 1, 2, 3), 0, IP4(255, 255, 255, 255), IP4(0, 9, 10, 99), IP4(100, 0, 255, 1), IP4(1, 200, 0, 0)} {
		want := fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		if got := a.String(); got != want {
			t.Errorf("String(%#x) = %q, want %q", uint32(a), got, want)
		}
	}
	if got := IP4(10, 1, 2, 3).String(); got != "10.1.2.3" {
		t.Fatalf("String = %q", got)
	}
}

func TestDupAddrRejected(t *testing.T) {
	n := New(sim.New(1))
	n.MustAddNode("a", IP4(1, 1, 1, 1))
	if _, err := n.AddNodeOn("b", IP4(1, 1, 1, 1), n.Engine); !errors.Is(err, errDupAddr) {
		t.Fatalf("err = %v", err)
	}
}

func TestRawDelivery(t *testing.T) {
	e, _, h, r := twoNodes(t)
	var got []byte
	r.BindProto(200, func(pkt *Packet) { got = pkt.Payload.Bytes() })
	e.Go("send", func(p *sim.Proc) {
		err := h.SendChain(r.Addr, 200, mbuf.FromBytes([]byte("hello")))
		if err != nil {
			t.Errorf("SendChain: %v", err)
		}
	})
	e.Run()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if r.Delivered != 1 {
		t.Fatalf("Delivered = %d", r.Delivered)
	}
}

func TestNoRoute(t *testing.T) {
	e := sim.New(1)
	n := New(e)
	lone := n.MustAddNode("lone", IP4(9, 9, 9, 9))
	err := lone.SendChain(IP4(8, 8, 8, 8), 1, mbuf.FromBytes(nil))
	if !errors.Is(err, errNoRoute) {
		t.Fatalf("err = %v", err)
	}
	// The record is recycled by the drop; the error still names the
	// destination it was built for.
	if want := "memnet: no route to destination: 8.8.8.8 from lone"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	if lone.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", lone.NoRoute)
	}
}

func TestForwarding(t *testing.T) {
	e := sim.New(1)
	n := New(e)
	a := n.MustAddNode("a", IP4(10, 0, 0, 1))
	b := n.MustAddNode("b", IP4(10, 0, 0, 2))
	c := n.MustAddNode("c", IP4(10, 0, 0, 3))
	n.Connect(a, b, FDDI())
	n.Connect(b, c, FDDI())
	a.AddRoute(c.Addr, b)
	b.AddRoute(c.Addr, c)
	var got bool
	c.BindProto(99, func(*Packet) { got = true })
	_ = a.SendChain(c.Addr, 99, mbuf.FromBytes([]byte("x")))
	e.Run()
	if !got {
		t.Fatal("packet not forwarded to c")
	}
	if b.Forwarded != 1 {
		t.Fatalf("b.Forwarded = %d", b.Forwarded)
	}
}

func TestTTLExpiry(t *testing.T) {
	// Two nodes with default routes pointing at each other: a packet for
	// a third address ping-pongs until TTL dies.
	e, _, h, r := twoNodes(t)
	_ = h.SendChain(IP4(99, 99, 99, 99), 1, mbuf.FromBytes(nil))
	e.Run()
	if h.Forwarded+r.Forwarded == 0 {
		t.Fatal("no forwarding happened")
	}
	if h.Forwarded+r.Forwarded > defaultTTL {
		t.Fatalf("loop not bounded: %d hops", h.Forwarded+r.Forwarded)
	}
}

func TestLinkLoss(t *testing.T) {
	e, _, h, r := twoNodes(t)
	h.LinkTo(r).SetLoss(1.0)
	delivered := false
	r.BindProto(50, func(*Packet) { delivered = true })
	_ = h.SendChain(r.Addr, 50, mbuf.FromBytes(nil))
	e.Run()
	if delivered {
		t.Fatal("packet survived 100% loss")
	}
	sent, dropped, _ := h.LinkTo(r).Stats()
	if sent != 1 || dropped != 1 {
		t.Fatalf("stats sent=%d dropped=%d", sent, dropped)
	}
}

func TestSerializationDelay(t *testing.T) {
	e := sim.New(1)
	n := New(e)
	a := n.MustAddNode("a", IP4(1, 0, 0, 1))
	b := n.MustAddNode("b", IP4(1, 0, 0, 2))
	// 1 Mb/s, zero propagation: a 1020-byte payload + 20 IP = 1040 B
	// = 8320 bits = 8.32 ms.
	n.Connect(a, b, LinkConfig{RateBps: 1_000_000})
	a.SetDefaultRoute(b)
	var at time.Duration
	b.BindProto(7, func(*Packet) { at = e.Now() })
	_ = a.SendChain(b.Addr, 7, mbuf.FromBytes(make([]byte, 1020)))
	e.Run()
	want := 8320 * time.Microsecond
	if at != want {
		t.Fatalf("arrival at %v, want %v", at, want)
	}
}

func TestLinkQueueing(t *testing.T) {
	e := sim.New(1)
	n := New(e)
	a := n.MustAddNode("a", IP4(1, 0, 0, 1))
	b := n.MustAddNode("b", IP4(1, 0, 0, 2))
	n.Connect(a, b, LinkConfig{RateBps: 1_000_000})
	a.SetDefaultRoute(b)
	var arrivals []time.Duration
	b.BindProto(7, func(*Packet) { arrivals = append(arrivals, e.Now()) })
	for i := 0; i < 3; i++ {
		_ = a.SendChain(b.Addr, 7, mbuf.FromBytes(make([]byte, 105)))
	}
	e.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Each packet is 125 B = 1 ms at 1 Mb/s; they serialize back to back.
	for i, want := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		if arrivals[i] != want {
			t.Fatalf("arrival %d at %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestIPCostCharged(t *testing.T) {
	e, _, h, r := twoNodes(t)
	hm, rm := cost.NewMeter(), cost.NewMeter()
	h.Meter, r.Meter = hm, rm
	r.BindProto(60, func(*Packet) {})
	_ = h.SendChain(r.Addr, 60, mbuf.FromBytes(nil))
	e.Run()
	if got := hm.Snapshot()[cost.IP]; got != cost.IPSendCost {
		t.Fatalf("sender IP cost = %d", got)
	}
	if got := rm.Snapshot()[cost.IP]; got != cost.IPRecvCost {
		t.Fatalf("receiver IP cost = %d", got)
	}
}

func TestStreamConnectSendRecv(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		const port = 5000
		l, err := r.ListenStream(port)
		if err != nil {
			t.Fatal(err)
		}
		var serverGot, clientGot []byte
		e.Go("server", func(p *sim.Proc) {
			s, ok := l.Accept(p)
			if !ok {
				t.Error("accept failed")
				return
			}
			msg, ok := s.Recv(p)
			if !ok {
				t.Error("server recv failed")
				return
			}
			serverGot = msg
			_ = s.Send([]byte("pong"))
			s.Close()
		})
		e.Go("client", func(p *sim.Proc) {
			s, err := h.DialStream(p, r.Addr, port)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			_ = s.Send([]byte("ping"))
			msg, ok := s.Recv(p)
			if ok {
				clientGot = msg
			}
			s.Close()
		})
		e.Run()
		if string(serverGot) != "ping" || string(clientGot) != "pong" {
			t.Fatalf("server %q client %q", serverGot, clientGot)
		}
	})
}

func TestStreamOrderingManyMessages(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		var got []int
		e.Go("server", func(p *sim.Proc) {
			s, _ := l.Accept(p)
			for {
				msg, ok := s.Recv(p)
				if !ok {
					return
				}
				got = append(got, int(msg[0])<<8|int(msg[1]))
			}
		})
		const count = 200 // exceeds the window, exercising pending-buffer flow
		e.Go("client", func(p *sim.Proc) {
			s, err := h.DialStream(p, r.Addr, 5000)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			for i := 0; i < count; i++ {
				_ = s.Send([]byte{byte(i >> 8), byte(i)})
			}
			s.Close()
		})
		e.Run()
		if len(got) != count {
			t.Fatalf("received %d of %d", len(got), count)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("out of order at %d: %d", i, v)
			}
		}
	})
}

func TestStreamReliabilityUnderLoss(t *testing.T) {
	e, _, h, r := twoNodes(t)
	h.LinkTo(r).SetLoss(0.2)
	r.LinkTo(h).SetLoss(0.2)
	l, _ := r.ListenStream(5000)
	var got []int
	e.Go("server", func(p *sim.Proc) {
		s, _ := l.Accept(p)
		for {
			msg, ok := s.Recv(p)
			if !ok {
				return
			}
			got = append(got, int(msg[0]))
		}
	})
	const count = 50
	e.Go("client", func(p *sim.Proc) {
		s, err := h.DialStream(p, r.Addr, 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < count; i++ {
			_ = s.Send([]byte{byte(i)})
			p.Sleep(time.Millisecond)
		}
		s.Close()
	})
	e.Run()
	if len(got) != count {
		t.Fatalf("received %d of %d under loss", len(got), count)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestStreamReorderingMasked(t *testing.T) {
	e, _, h, r := twoNodes(t)
	h.LinkTo(r).SetReorder(0.3, 5*time.Millisecond)
	l, _ := r.ListenStream(5000)
	var got []int
	e.Go("server", func(p *sim.Proc) {
		s, _ := l.Accept(p)
		for {
			msg, ok := s.Recv(p)
			if !ok {
				return
			}
			got = append(got, int(msg[0]))
		}
	})
	e.Go("client", func(p *sim.Proc) {
		s, _ := h.DialStream(p, r.Addr, 5000)
		for i := 0; i < 40; i++ {
			_ = s.Send([]byte{byte(i)})
			p.Sleep(500 * time.Microsecond)
		}
		s.Close()
	})
	e.Run()
	if len(got) != 40 {
		t.Fatalf("received %d of 40", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordering leaked through at %d: %d", i, v)
		}
	}
}

func TestDialRefused(t *testing.T) {
	e, _, h, r := twoNodes(t)
	var err error
	e.Go("client", func(p *sim.Proc) {
		_, err = h.DialStream(p, r.Addr, 12345)
	})
	e.Run()
	if !errors.Is(err, errConnRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestDialUnreachableTimesOut(t *testing.T) {
	e := sim.New(1)
	n := New(e)
	a := n.MustAddNode("a", IP4(1, 0, 0, 1))
	b := n.MustAddNode("b", IP4(1, 0, 0, 2))
	n.Connect(a, b, FDDI())
	a.SetDefaultRoute(b)
	// b has no route back to a: SYNs arrive, RSTs die at b (no route).
	var err error
	e.Go("client", func(p *sim.Proc) {
		_, err = a.DialStream(p, IP4(1, 0, 0, 2), 80)
	})
	e.Run()
	if !errors.Is(err, errStreamReset) {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamTeardownHookOrderly(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		var hookReset []bool
		e.Go("server", func(p *sim.Proc) {
			s, _ := l.Accept(p)
			s.SetTeardown(func(reset bool) { hookReset = append(hookReset, reset) })
			for {
				if _, ok := s.Recv(p); !ok {
					break
				}
			}
			s.Close()
		})
		e.Go("client", func(p *sim.Proc) {
			s, _ := h.DialStream(p, r.Addr, 5000)
			_ = s.Send([]byte("x"))
			s.Close()
		})
		e.Run()
		if len(hookReset) != 1 || hookReset[0] {
			t.Fatalf("teardown hooks = %v, want one orderly", hookReset)
		}
	})
}

func TestListenerPortConflict(t *testing.T) {
	_, _, _, r := twoNodes(t)
	if _, err := r.ListenStream(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ListenStream(5000); !errors.Is(err, errPortInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestListenerClose(t *testing.T) {
	e, _, h, r := twoNodes(t)
	l, _ := r.ListenStream(5000)
	var acceptOK, dialErr = true, error(nil)
	e.Go("server", func(p *sim.Proc) {
		_, acceptOK = l.Accept(p)
	})
	e.Go("closer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		l.Close()
	})
	e.Go("late-client", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		_, dialErr = h.DialStream(p, r.Addr, 5000)
	})
	e.Run()
	if acceptOK {
		t.Fatal("accept succeeded after close")
	}
	if !errors.Is(dialErr, errConnRefused) {
		t.Fatalf("late dial err = %v", dialErr)
	}
	l.Close() // idempotent
}

func TestDatagramDelivery(t *testing.T) {
	e, _, h, r := twoNodes(t)
	var got []byte
	var gotSrc IPAddr
	var gotSport uint16
	if err := r.BindDatagram(9000, func(src IPAddr, sport uint16, data []byte) {
		gotSrc, gotSport, got = src, sport, data
	}); err != nil {
		t.Fatal(err)
	}
	_ = h.SendDatagram(r.Addr, 9000, 1234, []byte("dgram"))
	e.Run()
	if string(got) != "dgram" || gotSrc != h.Addr || gotSport != 1234 {
		t.Fatalf("got %q from %v:%d", got, gotSrc, gotSport)
	}
}

func TestDatagramPortConflictAndUnbind(t *testing.T) {
	_, _, _, r := twoNodes(t)
	if err := r.BindDatagram(9000, func(IPAddr, uint16, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.BindDatagram(9000, func(IPAddr, uint16, []byte) {}); !errors.Is(err, errPortInUse) {
		t.Fatalf("err = %v", err)
	}
	r.UnbindDatagram(9000)
	if err := r.BindDatagram(9000, func(IPAddr, uint16, []byte) {}); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
}

func TestDatagramIsUnreliable(t *testing.T) {
	e, _, h, r := twoNodes(t)
	h.LinkTo(r).SetLoss(1.0)
	seen := false
	_ = r.BindDatagram(9000, func(IPAddr, uint16, []byte) { seen = true })
	_ = h.SendDatagram(r.Addr, 9000, 1, []byte("y"))
	e.Run()
	if seen {
		t.Fatal("datagram survived full loss")
	}
}

func TestStreamResetAfterPeerVanishes(t *testing.T) {
	// The half-open scenario of §4: the peer endpoint fails silently.
	// The sender's retransmissions exhaust and the stream resets.
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		var srv *Stream
		e.Go("server", func(p *sim.Proc) {
			srv, _ = l.Accept(p)
		})
		var sawReset bool
		e.Go("client", func(p *sim.Proc) {
			s, err := h.DialStream(p, r.Addr, 5000)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			s.SetTeardown(func(reset bool) { sawReset = reset })
			p.Sleep(10 * time.Millisecond)
			// Simulate silent remote death: the server's conn evaporates.
			srv.finish(true)
			// Over the link, cut the reverse path so RSTs cannot rescue
			// the sender and it must discover the failure by
			// retransmission exhaustion. The loopback cannot lose the RST
			// its data draws, so there it is the RST that resets.
			if r != h {
				r.LinkTo(h).SetLoss(1.0)
			}
			_ = s.Send([]byte("into the void"))
		})
		e.Run()
		if !sawReset {
			t.Fatal("stream did not reset after peer vanished")
		}
	})
}

// TestDialWithEveryEphemeralPortHeld: a node holding all of 10000–65535
// fails a dial at once with errNoPort, where the port sweep used to spin
// forever, and a port let go is found by the next dial's single sweep.
func TestDialWithEveryEphemeralPortHeld(t *testing.T) {
	e, _, h, r := twoNodes(t)
	if _, err := r.ListenStream(5000); err != nil {
		t.Fatal(err)
	}
	var held []*StreamListener
	for port := 10000; port <= 65535; port++ {
		l, err := h.ListenStream(uint16(port))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
	}
	var full error
	var got *Stream
	e.Go("client", func(p *sim.Proc) {
		_, full = h.DialStream(p, r.Addr, 5000)
		held[123].Close()
		got, _ = h.DialStream(p, r.Addr, 5000)
	})
	e.Run()
	if !errors.Is(full, errNoPort) {
		t.Fatalf("dial with every port held: err = %v, want errNoPort", full)
	}
	if got == nil || got.LocalPort() != 10123 {
		t.Fatalf("dial after port 10123 was let go: %v", got)
	}
}
