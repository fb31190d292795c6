package memnet

import (
	"fmt"
	"testing"
	"time"

	"xunet/internal/mbuf"
	"xunet/internal/sim"
)

// TestListenerHoldsManyConns: one listener accepts thirty connections
// from each of three nodes whose dials take the same ephemeral ports, so
// every remote port the listener sees is held three times. Each connection's messages reach its own
// accepted end, with a third of them closed first, each node's in turn;
// then the port table is empty.
func TestListenerHoldsManyConns(t *testing.T) {
	e := sim.New(1)
	n := New(e)
	srv := n.MustAddNode("srv", IP4(10, 0, 0, 1))
	a := n.MustAddNode("a", IP4(10, 0, 0, 2))
	b := n.MustAddNode("b", IP4(10, 0, 0, 3))
	c := n.MustAddNode("c", IP4(10, 0, 0, 4))
	for _, c := range []*Node{a, b, c} {
		c.Pool = new(mbuf.Pool)
		n.Connect(c, srv, FDDI())
		c.SetDefaultRoute(srv)
	}
	srv.Pool = new(mbuf.Pool)
	srv.AddRoute(a.Addr, a)
	srv.AddRoute(b.Addr, b)
	srv.AddRoute(c.Addr, c)
	l, _ := srv.ListenStream(5000)
	got := map[string]*recorder{} // by "node/port" of the dialer
	l.OnAccept(func(s *Stream) Receiver {
		r := &recorder{onEOF: s.Close}
		got[fmt.Sprintf("%v/%d", s.RemoteAddr(), s.key.rport)] = r
		return r
	})
	var dialed []*Stream
	for range 30 {
		for _, c := range []*Node{a, b, c} {
			s, err := c.Dial(srv.Addr, 5000, &recorder{})
			if err != nil {
				t.Fatal(err)
			}
			dialed = append(dialed, s)
		}
	}
	e.RunFor(time.Second)
	if dialed[0].key.lport != dialed[2].key.lport || len(got) != 90 || srv.streams.conns.Len() != 90 {
		t.Fatalf("ports %d and %d, %d accepted, %d held; want one port thrice, 90 and 90",
			dialed[0].key.lport, dialed[2].key.lport, len(got), srv.streams.conns.Len())
	}
	closed := func(i int) bool { return i%3 == 2-i/3%3 } // c's, b's and a's in turn
	for i, s := range dialed {
		if closed(i) {
			s.Close()
		}
	}
	e.RunFor(time.Second)
	if err := tableErr(srv.streams); err != nil {
		t.Fatal(err)
	}
	for i, s := range dialed {
		_ = s.Send([]byte(fmt.Sprint(i)))
	}
	e.RunFor(time.Second)
	for i, s := range dialed {
		r := got[fmt.Sprintf("%v/%d", s.node.Addr, s.key.lport)]
		if want := fmt.Sprint(i); !closed(i) && (len(r.msgs) != 1 || r.msgs[0] != want) || closed(i) && len(r.msgs) != 0 {
			t.Errorf("dial %d's accepted end took %q", i, r.msgs)
		}
	}
	for _, s := range dialed {
		s.Close()
	}
	e.RunFor(time.Second)
	l.Close()
	if srv.streams.conns.Len() != 0 || srv.streams.portBusy(5000) {
		t.Fatalf("%d conns, port busy %v after every close", srv.streams.conns.Len(), srv.streams.portBusy(5000))
	}
	for _, c := range []*Node{a, b, c} {
		if c.streams.conns.Len() != 0 || c.streams.portBusy(dialed[0].key.lport) {
			t.Fatalf("%s: %d conns after every close", c.Name, c.streams.conns.Len())
		}
	}
}

// TestConnKeyIDs: keys that differ in any field, a loopback
// connection's two ends and the high ports included, have distinct ids.
func TestConnKeyIDs(t *testing.T) {
	ids := map[uint64]connKey{}
	for _, lport := range []uint16{5000, 49152, 65535} {
		for _, raddr := range []IPAddr{IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), IP4(10, 0, 1, 1), IP4(138, 0, 0, 1)} {
			for _, rport := range []uint16{5000, 49152, 65535} {
				k := connKey{lport: lport, raddr: raddr, rport: rport}
				if o, dup := ids[k.id()]; dup {
					t.Fatalf("%+v and %+v share id %#x", o, k, k.id())
				}
				ids[k.id()] = k
			}
		}
	}
}
