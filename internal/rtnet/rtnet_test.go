package rtnet

import (
	"fmt"
	"net"
	"net/netip"
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

func TestUnknownPeerAndBadFramesDropped(t *testing.T) {
	reg := obs.NewRegistry()
	var sig, data int
	c, err := New(Config{Listen: "127.0.0.1:0", ManualRx: true, Obs: reg,
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

	// Register the stranger, then send malformed frames: unknown class
	// and a data frame shorter than its header.
	if _, err := c.AddPeer("stranger", raw.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{{0xEE, 1, 2}, {classData, 5}} {
		if _, err := raw.WriteToUDP(bad, dst); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for seen < 2 {
		n, err := c.RecvOnce()
		if err != nil {
			t.Fatal(err)
		}
		seen += n
	}
	if got := reg.Counter("rtnet.rx.bad_frame").Value(); got != 2 {
		t.Fatalf("bad_frame = %d, want 2", got)
	}
	if sig != 0 || data != 0 {
		t.Fatalf("malformed frames reached handlers (sig=%d data=%d)", sig, data)
	}
}

func TestSetPeerAddr(t *testing.T) {
	var n int
	rx := Config{OnSig: func(*Peer, []byte) { n++ }}
	a, b, ab, _ := newPair(t, false, rx)
	// Blackhole: re-target the peer at a port nobody listens on; frames
	// vanish without error (UDP), then healing the address restores
	// delivery.
	dead := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 1)
	if err := a.SetPeerAddr("b", dead); err != nil {
		t.Fatal(err)
	}
	_ = ab.SendSig([]byte("lost"))
	_ = ab.Flush()
	if err := a.SetPeerAddr("b", b.AddrPort()); err != nil {
		t.Fatal(err)
	}
	if err := ab.SendSig([]byte("found")); err != nil {
		t.Fatal(err)
	}
	if err := ab.Flush(); err != nil {
		t.Fatal(err)
	}
	drain(t, b, &n, 1)
	if err := a.SetPeerAddr("nobody", b.AddrPort()); err != ErrUnknownPeer {
		t.Fatalf("SetPeerAddr(unknown) = %v, want ErrUnknownPeer", err)
	}
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
		frame := make([]byte, 64)
		const burst = 8
		cycle := func() {
			for i := 0; i < burst; i++ {
				if err := ab.SendSig(frame); err != nil {
					t.Fatal(err)
				}
			}
			if err := ab.Flush(); err != nil {
				t.Fatal(err)
			}
			want := n + burst
			for n < want {
				if _, err := b.RecvOnce(); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // warm the path (histogram buckets, map entries)
		if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
			t.Fatalf("tx+rx steady state allocates %.1f allocs per %d-frame cycle, want 0", avg, burst)
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
