package signaling_test

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/rtnet"
	"xunet/internal/signaling"
)

// These tests exercise the cross-host real deployment: two sighost
// daemons on the loopback connected by the batched UDP carrier, with
// applications talking to each over the TCP RPC protocol — the full
// native-mode stack over actual sockets.

func startPeerPair(t testing.TB, cfgA, cfgB signaling.PeerNetConfig) (a, b *signaling.RealHost) {
	t.Helper()
	mk := func(addr atm.Addr, cfg signaling.PeerNetConfig) *signaling.RealHost {
		h, err := signaling.StartReal(addr, "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		t.Cleanup(h.Close)
		if err := h.EnablePeerNet(cfg); err != nil {
			t.Fatal(err)
		}
		return h
	}
	a = mk("a.rt", cfgA)
	b = mk("b.rt", cfgB)
	if err := a.AddPeer("b.rt", b.PeerNet().Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a.rt", a.PeerNet().Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// scrape snapshots each daemon's registry in a loop on its own
// goroutine, off the actors, as an operator's poller would, until the
// returned stop is called; stop returns once the loop has.
func scrape(hosts ...*signaling.RealHost) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, h := range hosts {
				h.SH.Obs.Snapshot()
			}
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runCall drives one full cross-host call: a server app exports service
// "echo" at b, a client app at a opens a connection to it. Returns the
// VCIs each side was granted. The call is left in wait_bind: no
// application binds the VCI.
func runCall(t *testing.T, a, b *signaling.RealHost) (cliVCI, srvVCI atm.VCI) {
	t.Helper()
	srvC := &signaling.RealClient{SighostAddr: b.ListenAddr()}
	srvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvL.Close()
	if err := srvC.ExportService("echo", uint16(srvL.Addr().(*net.TCPAddr).Port)); err != nil {
		t.Fatal(err)
	}
	type srvResult struct {
		vci atm.VCI
		qos string
		err error
	}
	srvCh := make(chan srvResult, 1)
	go func() {
		req, err := signaling.AwaitServiceRequest(srvL)
		if err != nil {
			srvCh <- srvResult{err: err}
			return
		}
		req.ReplyTimeout = 30 * time.Second
		vci, granted, err := req.Accept("cbr:500")
		srvCh <- srvResult{vci: vci, qos: granted, err: err}
	}()

	cliC := &signaling.RealClient{SighostAddr: a.ListenAddr(), EstablishTimeout: 30 * time.Second}
	cliL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cliL.Close()
	conn, err := cliC.OpenConnection(b.Addr, "echo", cliL, uint16(cliL.Addr().(*net.TCPAddr).Port), "cross-host", "cbr:1000")
	if err != nil {
		t.Fatal(err)
	}
	sr := <-srvCh
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if conn.VCI == 0 || sr.vci == 0 {
		t.Fatalf("zero VCI granted: client %v server %v", conn.VCI, sr.vci)
	}
	if conn.QoS != "cbr:500" || sr.qos != "cbr:500" {
		t.Fatalf("negotiated qos client=%q server=%q, want cbr:500", conn.QoS, sr.qos)
	}
	return conn.VCI, sr.vci
}

func TestRealCrossHostCallOverUDP(t *testing.T) {
	for _, mode := range []struct {
		name      string
		unbatched bool
	}{{"batched", false}, {"fallback", true}} {
		t.Run(mode.name, func(t *testing.T) {
			a, b := startPeerPair(t,
				signaling.PeerNetConfig{Unbatched: mode.unbatched},
				signaling.PeerNetConfig{Unbatched: mode.unbatched})
			runCall(t, a, b)
			// The signaling crossed the carrier, not the loopback
			// shortcut: both daemons sent and received peer frames.
			for _, h := range []*signaling.RealHost{a, b} {
				snap := h.SH.Obs.Snapshot()
				if snap.Count("rtnet.tx.frames") == 0 || snap.Count("rtnet.rx.frames") == 0 {
					t.Errorf("%s carrier idle: tx=%d rx=%d", h.Addr,
						snap.Count("rtnet.tx.frames"), snap.Count("rtnet.rx.frames"))
				}
			}
		})
	}
}

// TestRealPeerEncodeOnce is the real-mode mirror of the simulation's
// encode-once assertion: with a's wire to b losing frames, a's SETUP
// and CONNECT_DONE must be retransmitted from the frame cached at first
// transmission — the encode counter stays at one per distinct message
// while the wire sees more sends.
func TestRealPeerEncodeOnce(t *testing.T) {
	a, _ := lossyCall(t)

	a.Do(func() {
		snap := a.SH.Obs.Snapshot()
		// The origin side sends exactly two reliable messages per call:
		// SETUP and CONNECT_DONE.
		if got := snap.Count("sighost.rel.encodes"); got != 2 {
			t.Errorf("encodes = %d, want 2 (SETUP + CONNECT_DONE, retransmits reuse the cached frame)", got)
		}
		if got := snap.Count("sighost.rel.retransmits"); got == 0 {
			t.Error("the lossy wire produced no retransmissions")
		}
	})
}

// lossyCall runs one call from a to b over a wire from a to b that loses
// frames, repaired by the reliable channel. The seed's first verdict
// drops SETUP, so at least one retransmit.
func lossyCall(t *testing.T) (a, b *signaling.RealHost) {
	lossy := &faults.Config{SigLoss: 0.5, Seed: 3}
	a, b = startPeerPair(t, signaling.PeerNetConfig{Faults: lossy}, signaling.PeerNetConfig{})
	rel := signaling.RelConfig{
		RTO:             40 * time.Millisecond,
		MaxBackoffShift: 2,
		MaxRetries:      10,
		KeepaliveEvery:  time.Minute,
		KeepaliveMisses: 3,
	}
	a.EnableReliability(rel)
	b.EnableReliability(rel)
	runCall(t, a, b)
	return a, b
}

// mgmtView answers one MGMT query at h over a client connection of its
// own.
func mgmtView(t *testing.T, h *signaling.RealHost, view string) string {
	t.Helper()
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer c.Close()
	body, err := c.Client().Query(view, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRealPeerFaultsView: a daemon whose peer wire injects faults answers
// MGMT faults and faults.json from its plane, as a sim router does; a
// daemon without one says injection is disabled.
func TestRealPeerFaultsView(t *testing.T) {
	a, b := lossyCall(t)
	if body := mgmtView(t, a, signaling.MgmtFaults); !strings.Contains(body, "faults.sig.drop ") || strings.Contains(body, "faults.sig.drop 0\n") {
		t.Errorf("a's faults view does not count the SETUP it dropped: %q", body)
	}
	if body := mgmtView(t, a, signaling.MgmtFaultsJSON); !strings.Contains(body, `"name":"faults.sig.drop"`) {
		t.Errorf("a's faults.json view has no faults.sig.drop: %q", body)
	}
	if body := mgmtView(t, b, signaling.MgmtFaults); body != "fault injection disabled" {
		t.Errorf("b injects no faults, but its view reads %q", body)
	}
}

// TestRealPeerChaosCallCompletes drives a call through a chaotic peer
// wire: the same fault plane the simulation's chaos runs use, drawing
// verdicts on the real carrier, repaired by the same reliability layer.
// One row loses and duplicates frames; the other holds frames back, so
// the actor sends them from a timer of its own later. Both registries
// are scraped throughout, with the retransmit backlog moving under the
// scrape.
func TestRealPeerChaosCallCompletes(t *testing.T) {
	for _, row := range []struct {
		name  string
		chaos faults.Config
		drew  string // the verdict counter the call must have moved
	}{
		{"loss+dup", faults.Config{SigLoss: 0.25, SigDup: 0.25, Seed: 11}, "faults.sig.drop"},
		{"delay", faults.Config{SigDelayProb: 0.5, SigDelayMax: 20 * time.Millisecond, Seed: 11}, "faults.sig.delay"},
	} {
		t.Run(row.name, func(t *testing.T) {
			a, b := startPeerPair(t,
				signaling.PeerNetConfig{Faults: &row.chaos},
				signaling.PeerNetConfig{Faults: &row.chaos})
			rel := signaling.RelConfig{
				RTO:             30 * time.Millisecond,
				MaxBackoffShift: 3,
				MaxRetries:      12,
				KeepaliveEvery:  time.Minute,
				KeepaliveMisses: 3,
			}
			a.EnableReliability(rel)
			b.EnableReliability(rel)
			stop := scrape(a, b)
			runCall(t, a, b)
			stop()
			drew := 0
			for _, h := range []*signaling.RealHost{a, b} {
				for _, line := range strings.Split(mgmtView(t, h, signaling.MgmtFaults), "\n") {
					if f := strings.Fields(line); len(f) == 2 && f[0] == row.drew && f[1] != "0" {
						drew++
					}
				}
			}
			if drew == 0 {
				t.Errorf("the call drew no %s verdict on either daemon", row.drew)
			}
		})
	}
}

// TestRealPeerDataPathAAL5 sends AAL5 frames between the hosts on the
// VCI a signaled call granted: the native-mode data path the signaling
// exists to set up.
func TestRealPeerDataPathAAL5(t *testing.T) {
	type rxFrame struct {
		vci     atm.VCI
		payload []byte
		err     error
	}
	rxCh := make(chan rxFrame, 16)
	var rxLink rtnet.AAL5Link // receive side; owned by b's rx pump
	a, b := startPeerPair(t, signaling.PeerNetConfig{}, signaling.PeerNetConfig{
		OnData: func(from *rtnet.Peer, vci atm.VCI, payload []byte) {
			p, err := rxLink.Recv(payload)
			// payload aliases the carrier's rx buffers; copy out.
			rxCh <- rxFrame{vci: vci, payload: append([]byte(nil), p...), err: err}
		},
	})
	cliVCI, _ := runCall(t, a, b)

	// The actor is a's carrier's one sender, so the frames go out from
	// actor context.
	msgs := [][]byte{[]byte("native-mode"), []byte("atm"), bytes.Repeat([]byte{0xAB}, 4000)}
	err := errors.New("a closed before sending")
	a.Do(func() {
		peer := a.PeerFor("b.rt")
		if peer == nil {
			err = errors.New("no carrier peer for b.rt")
			return
		}
		tx := &rtnet.AAL5Link{P: peer, VCI: cliVCI}
		for _, m := range msgs {
			if err = tx.Send(m); err != nil {
				return
			}
		}
		err = peer.Flush()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range msgs {
		select {
		case got := <-rxCh:
			if got.err != nil {
				t.Fatalf("frame %d: %v", i, got.err)
			}
			if got.vci != cliVCI {
				t.Fatalf("frame %d vci = %v, want %v", i, got.vci, cliVCI)
			}
			if !bytes.Equal(got.payload, want) {
				t.Fatalf("frame %d payload mismatch (%d vs %d bytes)", i, len(got.payload), len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
}

// TestRealPeerSpansStayHome: each real daemon's collector numbers its
// own traces and spans from 1, so the IDs a peer's SETUP and
// CONNECT_DONE carry name nothing at the receiver. With b's call 1 in
// wait_bind, a's call 1 into b's service must add nothing to b's trace
// of its own call: no destination span and no second copy of a stage.
func TestRealPeerSpansStayHome(t *testing.T) {
	a, b := startPeerPair(t, signaling.PeerNetConfig{}, signaling.PeerNetConfig{})
	runCall(t, b, a) // b's call 1, trace 1 at b
	runCall(t, a, b) // a's call 1, trace 1 at a
	var spans []string
	b.Do(func() {
		tr, ok := b.SH.TraceC.ByCall("b.rt", 1)
		if !ok {
			return
		}
		for _, sp := range tr.Spans {
			spans = append(spans, sp.Comp+"/"+sp.Name)
		}
	})
	if len(spans) == 0 {
		t.Fatal("b holds no trace of its own call 1")
	}
	seen := map[string]bool{}
	for _, name := range spans {
		if strings.Contains(name, "/dest.") || seen[name] {
			t.Fatalf("b's trace of its own call 1 holds a's spans (%s): %v", name, spans)
		}
		seen[name] = true
	}
}
