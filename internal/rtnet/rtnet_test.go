package rtnet

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"testing"

	"xunet/internal/atm"
	"xunet/internal/obs"
)

// newPair builds two carriers on the loopback with peers registered in
// both directions. ManualRx keeps reception on the test goroutine.
// testing.TB so the benchmarks reuse it.
func newPair(t testing.TB, unbatched bool, rx Config) (a, b *Carrier, ab, ba *Peer) {
	t.Helper()
	mk := func(cfg Config) *Carrier {
		cfg.Listen = "127.0.0.1:0"
		cfg.Unbatched = unbatched
		cfg.ManualRx = true
		c, err := New(cfg)
		if err != nil {
			t.Skipf("loopback UDP unavailable: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a = mk(Config{Obs: obs.NewRegistry()})
	b = mk(rx)
	var err error
	if ab, err = a.AddPeer("b", b.AddrPort()); err != nil {
		t.Fatal(err)
	}
	if ba, err = b.AddPeer("a", a.AddrPort()); err != nil {
		t.Fatal(err)
	}
	return a, b, ab, ba
}

// drain pulls batches from c until want frames were dispatched (the
// test handler counts) or the poller would block forever on a bug —
// RecvOnce blocks, so a miscount hangs and the test timeout catches it.
func drain(t testing.TB, c *Carrier, got *int, want int) {
	t.Helper()
	for *got < want {
		if _, err := c.RecvOnce(); err != nil {
			t.Fatalf("RecvOnce: %v", err)
		}
	}
}

func modes(t *testing.T, f func(t *testing.T, unbatched bool)) {
	t.Run("fallback", func(t *testing.T) { f(t, true) })
	if osBatched {
		t.Run("batched", func(t *testing.T) { f(t, false) })
	}
}

func TestSigRoundTrip(t *testing.T) {
	modes(t, func(t *testing.T, unbatched bool) {
		var got []string
		var n int
		rx := Config{Obs: obs.NewRegistry(), OnSig: func(from *Peer, frame []byte) {
			got = append(got, from.Name()+":"+string(frame))
			n++
		}}
		_, b, ab, _ := newPair(t, unbatched, rx)
		const k = 75 // spans multiple batches
		for i := 0; i < k; i++ {
			if err := ab.SendSig([]byte(fmt.Sprintf("m%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ab.Flush(); err != nil {
			t.Fatal(err)
		}
		drain(t, b, &n, k)
		for i, g := range got {
			if want := fmt.Sprintf("a:m%03d", i); g != want {
				t.Fatalf("frame %d = %q, want %q", i, g, want)
			}
		}
	})
}

func TestDataRoundTripAAL5(t *testing.T) {
	modes(t, func(t *testing.T, unbatched bool) {
		var rxLink AAL5Link
		var payloads []string
		var vcis []atm.VCI
		var n int
		rx := Config{Obs: obs.NewRegistry(), OnData: func(from *Peer, vci atm.VCI, payload []byte) {
			p, err := rxLink.Recv(payload)
			if err != nil {
				t.Errorf("aal5 recv: %v", err)
			}
			payloads = append(payloads, string(p))
			vcis = append(vcis, vci)
			n++
		}}
		_, b, ab, _ := newPair(t, unbatched, rx)
		link := &AAL5Link{P: ab, VCI: 77}
		const k = 40
		for i := 0; i < k; i++ {
			if err := link.Send([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ab.Flush(); err != nil {
			t.Fatal(err)
		}
		drain(t, b, &n, k)
		for i, p := range payloads {
			if want := fmt.Sprintf("payload-%02d", i); p != want {
				t.Fatalf("payload %d = %q, want %q", i, p, want)
			}
			if vcis[i] != 77 {
				t.Fatalf("vci %d = %d, want 77", i, vcis[i])
			}
		}
		if rxLink.Seq.OutOfOrder != 0 || rxLink.Seq.InOrder != k {
			t.Fatalf("seq tracker %v after in-order stream", rxLink.Seq.String())
		}
	})
}

// TestFlushBoundaries: the coalescer flushes on its own at the frame-
// count bound and at the slab-byte bound, and holds the tail for the
// explicit dispatch-boundary flush.
func TestFlushBoundaries(t *testing.T) {
	modes(t, func(t *testing.T, unbatched bool) {
		reg := obs.NewRegistry()
		var n int
		rx := Config{Obs: obs.NewRegistry(), OnSig: func(*Peer, []byte) { n++ }}
		a, b, ab, _ := newPair(t, unbatched, rx)
		_ = a
		// Count bound: Batch+3 sends auto-flush exactly one full batch.
		for i := 0; i < DefaultBatch+3; i++ {
			if err := ab.SendSig([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if got := ab.Pending(); got != 3 {
			t.Fatalf("pending after count-bound overflow = %d, want 3", got)
		}
		drain(t, b, &n, DefaultBatch)
		if err := ab.Flush(); err != nil {
			t.Fatal(err)
		}
		drain(t, b, &n, DefaultBatch+3)
		if ab.Pending() != 0 {
			t.Fatalf("pending after explicit flush = %d", ab.Pending())
		}

		// Byte bound: frames near MaxFrame overflow the slab long before
		// the count bound.
		big, err := New(Config{Listen: "127.0.0.1:0", Batch: 8, MaxFrame: 1024, Unbatched: unbatched, ManualRx: true, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer big.Close()
		sink, err := New(Config{Listen: "127.0.0.1:0", Batch: 8, MaxFrame: 1024, Unbatched: unbatched, ManualRx: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		p, err := big.AddPeer("sink", sink.AddrPort())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sink.AddPeer("big", big.AddrPort()); err != nil {
			t.Fatal(err)
		}
		huge := make([]byte, 1024)
		for i := 0; i < 9; i++ { // 9 KiB+ against an 8 KiB+hdrs slab
			if err := p.SendData(9, huge); err != nil {
				t.Fatal(err)
			}
		}
		if flushes := reg.Counter("rtnet.tx.batches").Value(); flushes == 0 {
			t.Fatal("byte-bound overflow never auto-flushed")
		}
		if err := p.SendData(9, make([]byte, 1025)); err != ErrFrameTooLong {
			t.Fatalf("oversized frame: err = %v, want ErrFrameTooLong", err)
		}
	})
}

// TestUnknownPeerAndBadFramesDropped: a datagram from an unregistered
// source, a frame of unknown class, one shorter than its header, and
// datagrams longer than a frame can be are counted and never reach a
// handler. A datagram longer than the receive slot is cut by the kernel
// (MSG_TRUNC), one that fits a 64 KiB GRO slot fails the length check;
// the fallback reads one byte past the longest frame and drops it the
// same way.
func TestUnknownPeerAndBadFramesDropped(t *testing.T) {
	modes(t, func(t *testing.T, unbatched bool) {
		for _, maxFrame := range []int{DefaultMaxFrame, 1024} {
			reg := obs.NewRegistry()
			var sig, data int
			c, err := New(Config{Listen: "127.0.0.1:0", MaxFrame: maxFrame, Unbatched: unbatched, ManualRx: true, Obs: reg,
				OnSig:  func(*Peer, []byte) { sig++ },
				OnData: func(*Peer, atm.VCI, []byte) { data++ }})
			if err != nil {
				t.Skipf("loopback UDP unavailable: %v", err)
			}
			defer c.Close()

			raw, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(c.AddrPort().Port())}

			// Stranger: valid sig frame from an unregistered source.
			if _, err := raw.WriteToUDP([]byte{classSig, 'h', 'i'}, dst); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RecvOnce(); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("rtnet.rx.unknown_peer").Value(); got != 1 {
				t.Fatalf("unknown_peer = %d, want 1", got)
			}

			// Register the stranger, then send malformed frames: unknown
			// class, a data frame shorter than its header, and data
			// frames one byte and ~1 KiB past MaxFrame.
			if _, err := c.AddPeer("stranger", raw.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
				t.Fatal(err)
			}
			bad := [][]byte{{0xEE, 1, 2}, {classData, 5}}
			for _, n := range []int{dataHdrLen + maxFrame + 1, maxFrame + 979} {
				long := make([]byte, n)
				long[0] = classData
				bad = append(bad, long)
			}
			for _, b := range bad {
				if _, err := raw.WriteToUDP(b, dst); err != nil {
					t.Fatal(err)
				}
			}
			for seen := 0; seen < len(bad); {
				n, err := c.RecvOnce()
				if err != nil {
					t.Fatal(err)
				}
				seen += n
			}
			if got := reg.Counter("rtnet.rx.bad_frame").Value(); got != uint64(len(bad)) {
				t.Fatalf("MaxFrame %d: bad_frame = %d, want %d", maxFrame, got, len(bad))
			}
			if sig != 0 || data != 0 {
				t.Fatalf("MaxFrame %d: malformed frames reached handlers (sig=%d data=%d)", maxFrame, sig, data)
			}
		}
	})
}

// TestDatagramTrains: one flush of mixed sizes leaves as one message
// per run of equal-length frames (the 8 KiB run cut under 65 507 bytes
// a message) and arrives in order, byte for byte. A path that refuses
// trains still gets every frame, one per message, and the refusal is
// counted. On the fallback every frame is its own message.
func TestDatagramTrains(t *testing.T) {
	modes(t, func(t *testing.T, unbatched bool) {
		var got [][]byte
		rx := Config{Obs: obs.NewRegistry(), OnData: func(_ *Peer, vci atm.VCI, payload []byte) {
			got = append(got, append([]byte{byte(vci)}, payload...))
		}}
		a, b, ab, _ := newPair(t, unbatched, rx)
		flush := func(sizes ...int) {
			t.Helper()
			got = got[:0]
			var want [][]byte
			for i, n := range sizes {
				p := make([]byte, n)
				for j := range p {
					p[j] = byte(i*7 + j)
				}
				if err := ab.SendData(atm.VCI(i), p); err != nil {
					t.Fatal(err)
				}
				want = append(want, append([]byte{byte(i)}, p...))
			}
			if err := ab.Flush(); err != nil {
				t.Fatal(err)
			}
			n := 0
			for len(got) < len(want) {
				if _, err := b.RecvOnce(); err != nil {
					t.Fatal(err)
				}
				if n++; n > 2*len(want) {
					t.Fatalf("%d of %d frames arrived", len(got), len(want))
				}
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("frame %d: %d bytes arrived, want %d bytes in order", i, len(got[i]), len(want[i]))
				}
			}
		}
		rep := func(n, size int) []int {
			s := make([]int, n)
			for i := range s {
				s[i] = size
			}
			return s
		}
		mixed := slices.Concat(rep(5, 64), rep(3, 100), []int{64}, rep(10, DefaultMaxFrame))
		msgs := a.reg.Counter("rtnet.tx.msgs")
		flush(mixed...)
		// Runs: 5×64, 3×100, 1×64, then 10×8195-byte frames as 7 + 3.
		want := uint64(5)
		if !a.gso {
			want = uint64(len(mixed))
		}
		if got := msgs.Value(); got != want {
			t.Fatalf("tx.msgs = %d for %d frames, want %d", got, len(mixed), want)
		}

		// A receiver without UDP_GRO, here the fallback, gets a train as
		// one datagram per frame.
		var un int
		u, err := New(Config{Unbatched: true, ManualRx: true, OnData: func(*Peer, atm.VCI, []byte) { un++ }})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		au, err := a.AddPeer("u", u.AddrPort())
		if err == nil {
			_, err = u.AddPeer("a", a.AddrPort())
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := au.SendData(1, make([]byte, 50)); err != nil {
				t.Fatal(err)
			}
		}
		if err := au.Flush(); err != nil {
			t.Fatal(err)
		}
		drain(t, u, &un, 8)
		if a.gso && msgs.Value() != want+1 {
			t.Fatalf("8 equal frames went out as %d messages, want 1", msgs.Value()-want)
		}
		if got := u.rxMsgs.Value(); got != 8 {
			t.Fatalf("an unbatched receiver read %d datagrams for 8 frames", got)
		}

		refused := a.reg.Counter("rtnet.tx.gso_refused")
		if !a.gso {
			if refused.Value() != 0 {
				t.Fatalf("gso_refused = %d without trains", refused.Value())
			}
			return
		}
		if err := setNoCheck(a, 1); err != nil {
			t.Fatal(err)
		}
		flush(mixed...)
		if got := refused.Value(); got != 1 {
			t.Fatalf("gso_refused = %d after the first refused train, want 1", got)
		}
		flush(rep(4, 10)...) // shorter than the refused length: a train, refused too
		if got := refused.Value(); got != 2 {
			t.Fatalf("gso_refused = %d after a shorter train, want 2", got)
		}
		flush(mixed...) // no train is left to refuse
		if got := refused.Value(); got != 2 {
			t.Fatalf("gso_refused = %d once every length was refused, want 2", got)
		}
	})
}

// TestHotLoopAllocs is the steady-state allocation gate for both tx
// coalescing+flush and the rx batch dispatch, in whichever mode the
// platform builds (and always in fallback mode, which every platform
// shares).
func TestHotLoopAllocs(t *testing.T) {
	modes(t, func(t *testing.T, unbatched bool) {
		var n int
		rx := Config{Obs: obs.NewRegistry(), OnSig: func(*Peer, []byte) { n++ }}
		_, b, ab, _ := newPair(t, unbatched, rx)
		small, large := make([]byte, 64), make([]byte, 200)
		cycle := func(frames ...[]byte) func() {
			return func() {
				for _, f := range frames {
					if err := ab.SendSig(f); err != nil {
						t.Fatal(err)
					}
				}
				if err := ab.Flush(); err != nil {
					t.Fatal(err)
				}
				for want := n + len(frames); n < want; {
					if _, err := b.RecvOnce(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// The mixed burst is runs of 3, 2 and 3: three trains where the
		// kernel takes them.
		for name, f := range map[string]func(){
			"equal": cycle(small, small, small, small, small, small, small, small),
			"mixed": cycle(small, small, small, large, large, small, small, small),
		} {
			f() // warm the path (histogram buckets, map entries)
			if avg := testing.AllocsPerRun(50, f); avg != 0 {
				t.Fatalf("tx+rx steady state allocates %.1f allocs per %s 8-frame cycle, want 0", avg, name)
			}
		}
	})
}

// TestAAL5LinkSendAllocs: the data-path framing also stays off the heap
// once its scratch is warm.
func TestAAL5LinkSendAllocs(t *testing.T) {
	_, _, ab, _ := newPair(t, false, Config{})
	link := &AAL5Link{P: ab, VCI: 9}
	payload := make([]byte, 700)
	if err := link.Send(payload); err != nil { // warm the scratch
		t.Fatal(err)
	}
	_ = ab.Flush()
	if avg := testing.AllocsPerRun(50, func() {
		if err := link.Send(payload); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AAL5Link.Send allocates %.1f/op, want 0", avg)
	}
}
