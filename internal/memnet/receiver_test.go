package memnet

import (
	"errors"
	"slices"
	"testing"
	"time"

	"xunet/internal/sim"
)

// recorder is a Receiver that writes down what it is told.
type recorder struct {
	dialed []error
	msgs   []string
	eofs   int
	onEOF  func()
}

func (r *recorder) Dialed(err error)   { r.dialed = append(r.dialed, err) }
func (r *recorder) Deliver(msg []byte) { r.msgs = append(r.msgs, string(msg)) }

func (r *recorder) EOF() {
	r.eofs++
	if r.onEOF != nil {
		r.onEOF()
	}
}

// A dial, a request and a hang-up between two receivers run without a
// process: each end learns of the handshake, the messages and the close
// in the events that deliver them, once each, and both ends finish.
func TestReceiversNeedNoProcess(t *testing.T) {
	forEachPair(t, func(t *testing.T, e *sim.Engine, h, r *Node) {
		l, _ := r.ListenStream(5000)
		srv := &recorder{}
		var accepted *Stream
		l.OnAccept(func(s *Stream) Receiver {
			accepted = s
			return srv
		})
		srv.onEOF = func() { accepted.Close() } // the server hangs up in turn
		cli := &recorder{}
		s, err := h.Dial(r.Addr, 5000, cli)
		if err != nil {
			t.Fatal(err)
		}
		e.RunFor(time.Second)
		if !slices.Equal(cli.dialed, []error{nil}) || accepted == nil {
			t.Fatalf("dial reported %v, accepted %v", cli.dialed, accepted != nil)
		}
		for _, m := range []string{"a", "b", "c"} {
			_ = s.Send([]byte(m))
		}
		s.Close()
		e.RunFor(time.Second)
		if !slices.Equal(srv.msgs, []string{"a", "b", "c"}) || srv.eofs != 1 {
			t.Fatalf("server took %q and %d ends, want a b c and 1", srv.msgs, srv.eofs)
		}
		if cli.eofs != 1 || len(cli.msgs) != 0 || len(srv.dialed) != 0 {
			t.Fatalf("client took %d ends and %q; server %d dial reports", cli.eofs, cli.msgs, len(srv.dialed))
		}
		if d := e.ProcDispatches(); d != 0 {
			t.Fatalf("%d process dispatches, want none", d)
		}
		if h.streams.conns.Len() != 0 || r.streams.conns.Len() != 0 {
			t.Fatalf("lingering conns: %d/%d", h.streams.conns.Len(), r.streams.conns.Len())
		}
	})
}

// A reset ends the stream for its receiver once, and nothing follows.
func TestReceiverEOFOnReset(t *testing.T) {
	e, _, h, r := twoNodes(t)
	l, _ := r.ListenStream(5000)
	srv := &recorder{}
	l.OnAccept(func(*Stream) Receiver { return srv })
	s, _ := h.Dial(r.Addr, 5000, &recorder{})
	e.RunFor(time.Second)
	_ = s.Send([]byte("x"))
	e.RunFor(time.Second)
	s.sendSegment(flagRST, 0, 0, nil)
	s.abort(errStreamReset)
	e.RunFor(time.Second)
	if !slices.Equal(srv.msgs, []string{"x"}) || srv.eofs != 1 {
		t.Fatalf("server took %q and %d ends, want x and 1", srv.msgs, srv.eofs)
	}
}

// A dial nobody answers fails through Dialed alone: refused at once by
// an RST, or reset once the SYNs run out; no end of stream follows.
func TestDialOutcomes(t *testing.T) {
	e, _, h, r := twoNodes(t)
	refused := &recorder{}
	if _, err := h.Dial(r.Addr, 12345, refused); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Second)
	if !slices.Equal(refused.dialed, []error{errConnRefused}) || refused.eofs != 0 {
		t.Fatalf("refused dial reported %v and %d ends", refused.dialed, refused.eofs)
	}

	n := New(sim.New(1))
	a := n.MustAddNode("a", IP4(1, 0, 0, 1))
	b := n.MustAddNode("b", IP4(1, 0, 0, 2))
	n.Connect(a, b, FDDI())
	a.SetDefaultRoute(b) // b has no route back: the SYNs go unanswered
	lost := &recorder{}
	if _, err := a.Dial(b.Addr, 80, lost); err != nil {
		t.Fatal(err)
	}
	n.Engine.Run()
	if len(lost.dialed) != 1 || !errors.Is(lost.dialed[0], errStreamReset) || lost.eofs != 0 {
		t.Fatalf("unanswered dial reported %v and %d ends", lost.dialed, lost.eofs)
	}
}
