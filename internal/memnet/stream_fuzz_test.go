package memnet

import (
	"fmt"
	"testing"
	"time"
)

// FuzzStreamInput feeds arbitrary segments, as they would arrive off the
// wire from the host, to a router that listens on 5000 and holds three
// connections the host dialed, one of them half closed. Whatever the
// bytes, nothing panics, and once the network drains the router's
// connection table holds each connection under its own key, its bound
// ports count their listeners and connections, and Audit
// finds every free list home.
func FuzzStreamInput(f *testing.F) {
	seg := func(flags byte, sport, dport uint16, seq, ack uint32, data string) []byte {
		s := segment{flags: flags, sport: sport, dport: dport, seq: seq, ack: ack}
		h := s.header()
		return append(h[:], data...)
	}
	f.Add(seg(flagSYN, 4000, 5000, 0, 0, ""))
	f.Add(seg(flagDATA, 10001, 5000, 1, 0, "hello"))
	f.Add(seg(flagDATA, 10002, 5000, 3, 0, "ahead of a gap"))
	f.Add(seg(flagFIN, 10003, 5000, 2, 0, ""))
	f.Add(seg(flagACK, 10001, 5000, 0, 9, ""))
	f.Add(seg(flagRST, 10002, 5000, 0, 0, ""))
	f.Add(seg(flagSYN|flagACK, 5000, 10001, 0, 0, ""))
	f.Add([]byte{flagDATA, 0x27})
	f.Fuzz(func(t *testing.T, b []byte) {
		e, _, h, r := twoNodes(t)
		l, _ := r.ListenStream(5000)
		l.OnAccept(func(s *Stream) Receiver { return &recorder{onEOF: s.Close} })
		var dialed [3]*Stream
		for i := range dialed {
			dialed[i], _ = h.Dial(r.Addr, 5000, &recorder{})
		}
		e.RunFor(time.Second)
		_ = dialed[0].Send([]byte("before"))
		dialed[2].Close()
		e.RunFor(time.Second)
		r.streams.input(&Packet{Src: h.Addr, Dst: r.Addr, Proto: protoStream, Payload: r.Pool.FromBytes(b)})
		e.RunFor(5 * time.Minute)
		if err := tableErr(r.streams); err != nil {
			t.Fatal(err)
		}
		r.Audit(func(list string, out, want int) {
			if out != want {
				t.Errorf("%s out: %d, want %d", list, out, want)
			}
		})
	})
}

// tableErr reports a connection the index holds under another key, and
// a port that is bound out of order, or whose count is not its listener
// and connections.
func tableErr(sl *streamLayer) error {
	want := map[uint16]int32{}
	for id, s := range sl.conns.All() {
		if s.key.id() != id {
			return fmt.Errorf("connection %+v held under %#x", s.key, id)
		}
		want[s.key.lport]++
	}
	for i, u := range sl.ports {
		if u.l != nil {
			want[u.port]++
		}
		if i > 0 && sl.ports[i-1].port >= u.port || u.n != want[u.port] || u.l != nil && u.l.port != u.port {
			return fmt.Errorf("port %d (at %d) counts %d, holds %d", u.port, i, u.n, want[u.port])
		}
		delete(want, u.port)
	}
	if len(want) > 0 {
		return fmt.Errorf("ports %v hold connections but are not bound", want)
	}
	return nil
}
