package rtnet

import (
	"bytes"
	"net/netip"
	"testing"

	"xunet/internal/atm"
	"xunet/internal/obs"
)

// FuzzCarrierFrame feeds arbitrary datagrams, each with a GRO segment
// size, to the carrier's receive dispatch, once from a registered peer
// and once from an unknown source, and passes every data-class payload
// through an AAL5Link. Nothing may panic. The train must split into
// frames that concatenate back to the datagram, one frame when seg is
// 0 or not smaller than it; from the peer each frame bumps exactly one
// of rtnet.rx.frames and rtnet.rx.bad_frame, from the stranger the
// datagram bumps rtnet.rx.unknown_peer once. The seed corpus is
// testdata/fuzz/FuzzCarrierFrame.
func FuzzCarrierFrame(f *testing.F) {
	var link AAL5Link
	c, err := New(Config{
		ManualRx: true,
		Obs:      obs.NewRegistry(),
		OnSig:    func(*Peer, []byte) {},
		OnData:   func(_ *Peer, _ atm.VCI, payload []byte) { _, _ = link.Recv(payload) },
	})
	if err != nil {
		f.Skipf("loopback UDP unavailable: %v", err)
	}
	f.Cleanup(func() { c.Close() })
	known := netip.MustParseAddrPort("127.0.0.1:9")
	if _, err := c.AddPeer("p", known); err != nil {
		f.Fatal(err)
	}
	unknown := netip.MustParseAddrPort("127.0.0.1:10")
	counts := func() uint64 { return c.rxFrames.Value() + c.rxBadFrame.Value() + c.rxUnknownPeer.Value() }
	f.Fuzz(func(t *testing.T, dgram []byte, seg int) {
		var frames [][]byte
		for rest := dgram; ; {
			var frame []byte
			frame, rest = nextFrame(rest, seg)
			frames = append(frames, frame)
			if len(rest) == 0 {
				break
			}
			if len(frames) > len(dgram) {
				t.Fatalf("split of %d bytes at %d does not end", len(dgram), seg)
			}
		}
		if joined := bytes.Join(frames, nil); !bytes.Equal(joined, dgram) {
			t.Fatalf("split of %x at %d rejoins as %x", dgram, seg, joined)
		}
		if (seg <= 0 || seg >= len(dgram)) && len(frames) != 1 {
			t.Fatalf("split of %d bytes at %d made %d frames, want 1", len(dgram), seg, len(frames))
		}
		for _, src := range []netip.AddrPort{known, unknown} {
			want := len(frames)
			if src == unknown {
				want = 1
			}
			before := counts()
			if got := c.dispatch(src, dgram, seg); got != want {
				t.Fatalf("datagram %x at %d from %v: dispatch consumed %d frames, want %d", dgram, seg, src, got, want)
			}
			if got := counts() - before; got != uint64(want) {
				t.Fatalf("datagram %x at %d from %v bumped the rx counters by %d, want %d", dgram, seg, src, got, want)
			}
		}
	})
}
