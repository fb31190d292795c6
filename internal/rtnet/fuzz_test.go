package rtnet

import (
	"net/netip"
	"testing"

	"xunet/internal/atm"
	"xunet/internal/obs"
)

// FuzzCarrierFrame feeds arbitrary datagrams to the carrier's receive
// dispatch, once from a registered peer and once from an unknown
// source, and passes every data-class payload through an AAL5Link.
// Neither may panic, and each datagram bumps exactly one of
// rtnet.rx.frames, rtnet.rx.bad_frame and rtnet.rx.unknown_peer. The
// seed corpus is testdata/fuzz/FuzzCarrierFrame.
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
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, src := range []netip.AddrPort{known, unknown} {
			before := counts()
			c.dispatch(src, frame)
			if got := counts() - before; got != 1 {
				t.Fatalf("datagram %x from %v bumped the rx counters by %d, want 1", frame, src, got)
			}
		}
	})
}
