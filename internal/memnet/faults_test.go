package memnet

import (
	"fmt"
	"testing"
	"time"

	"xunet/internal/faults"
	"xunet/internal/mbuf"
	"xunet/internal/sim"
)

// faultyPair builds host--router over FDDI with one fault plane attached
// to both nodes.
func faultyPair(t *testing.T, cfg faults.Config) (*sim.Engine, *faults.Plane, *Node, *Node) {
	t.Helper()
	e := sim.New(1)
	n := New(e)
	fp := faults.NewPlane(cfg)
	h := n.MustAddNode("host", IP4(10, 0, 0, 1))
	r := n.MustAddNode("router", IP4(10, 0, 0, 2))
	h.SetFaults(fp)
	r.SetFaults(fp)
	n.Connect(h, r, FDDI())
	h.SetDefaultRoute(r)
	r.SetDefaultRoute(h)
	return e, fp, h, r
}

// runStreamUnderFaults pushes count framed messages across a stream and
// returns what the receiver saw plus the plane's counter snapshot.
func runStreamUnderFaults(t *testing.T, cfg faults.Config, count int) ([]string, string) {
	t.Helper()
	e, fp, h, r := faultyPair(t, cfg)
	l, err := r.ListenStream(5000)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	e.Go("server", func(p *sim.Proc) {
		conn, ok := l.Accept(p)
		if !ok {
			return
		}
		for {
			b, ok := conn.Recv(p)
			if !ok {
				return
			}
			got = append(got, string(b))
		}
	})
	e.Go("client", func(p *sim.Proc) {
		conn, err := h.DialStream(p, r.Addr, 5000)
		if err != nil {
			t.Errorf("dial under faults: %v", err)
			return
		}
		for i := 0; i < count; i++ {
			if err := conn.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			p.Sleep(time.Millisecond)
		}
		conn.Close()
	})
	e.RunUntil(30 * time.Second)
	return got, fp.Obs.Snapshot().Text()
}

// TestStreamSurvivesPacketLoss is the repair contract: under 5% seeded
// packet loss plus duplication plus occasional extra delay, the stream
// layer's retransmission still delivers every framed message exactly
// once, in order — and the plane actually injected faults.
func TestStreamSurvivesPacketLoss(t *testing.T) {
	cfg := faults.Config{
		Seed: 11, PktLoss: 0.05, PktDup: 0.05,
		PktDelayProb: 0.1, PktDelayMax: 2 * time.Millisecond,
	}
	const count = 200
	got, snap := runStreamUnderFaults(t, cfg, count)
	if len(got) != count {
		t.Fatalf("delivered %d/%d messages", len(got), count)
	}
	for i, m := range got {
		if want := fmt.Sprintf("msg-%04d", i); m != want {
			t.Fatalf("message %d = %q, want %q (reordered or duplicated)", i, m, want)
		}
	}
	if snap == "" {
		t.Fatal("empty fault snapshot")
	}
}

// TestMemnetFaultCountersAdvance checks the injected faults are counted
// on the plane (drops and dups both fire at these rates over 200 sends
// plus retransmissions and acks).
func TestMemnetFaultCountersAdvance(t *testing.T) {
	e, fp, h, r := faultyPair(t, faults.Config{Seed: 5, PktLoss: 0.2, PktDup: 0.2})
	r.BindProto(200, func(pkt *Packet) {})
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			_ = h.SendChain(r.Addr, 200, mbuf.FromBytes(make([]byte, 8)))
			p.Sleep(100 * time.Microsecond)
		}
	})
	e.RunUntil(time.Second)
	snap := fp.Obs.Snapshot()
	if snap.Count("faults.pkt.drop") == 0 {
		t.Error("no packet drops counted")
	}
	if snap.Count("faults.pkt.dup") == 0 {
		t.Error("no packet dups counted")
	}
}

// TestMemnetFaultsDeterministic runs the identical lossy stream workload
// twice and demands byte-identical delivery and fault counters: the
// chaos replay guarantee at the packet layer.
func TestMemnetFaultsDeterministic(t *testing.T) {
	cfg := faults.Config{Seed: 23, PktLoss: 0.1, PktDup: 0.05, PktDelayProb: 0.2, PktDelayMax: time.Millisecond}
	gotA, snapA := runStreamUnderFaults(t, cfg, 100)
	gotB, snapB := runStreamUnderFaults(t, cfg, 100)
	if len(gotA) != len(gotB) {
		t.Fatalf("deliveries differ: %d vs %d", len(gotA), len(gotB))
	}
	if snapA != snapB {
		t.Fatalf("fault counters differ:\n%s\nvs\n%s", snapA, snapB)
	}
}

// TestZeroProbPlaneIsInvisible attaches an all-zero plane and checks the
// link counters match a plane-free run exactly: the golden-preservation
// property at the memnet layer.
func TestZeroProbPlaneIsInvisible(t *testing.T) {
	run := func(withPlane bool) (uint64, uint64, []string) {
		e := sim.New(1)
		n := New(e)
		h := n.MustAddNode("host", IP4(10, 0, 0, 1))
		r := n.MustAddNode("router", IP4(10, 0, 0, 2))
		if withPlane {
			fp := faults.NewPlane(faults.Config{})
			h.SetFaults(fp)
			r.SetFaults(fp)
		}
		n.Connect(h, r, FDDI())
		h.SetDefaultRoute(r)
		r.SetDefaultRoute(h)
		lh := h.LinkTo(r)
		l, err := r.ListenStream(5000)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		e.Go("server", func(p *sim.Proc) {
			conn, ok := l.Accept(p)
			if !ok {
				return
			}
			for {
				b, ok := conn.Recv(p)
				if !ok {
					return
				}
				got = append(got, string(b))
			}
		})
		e.Go("client", func(p *sim.Proc) {
			conn, err := h.DialStream(p, r.Addr, 5000)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			for i := 0; i < 50; i++ {
				_ = conn.Send([]byte(fmt.Sprintf("m%02d", i)))
			}
			conn.Close()
		})
		e.RunUntil(10 * time.Second)
		sent, dropped := lh.Stats()
		return sent, dropped, got
	}
	sentA, dropA, gotA := run(false)
	sentB, dropB, gotB := run(true)
	if sentA != sentB || dropA != dropB || len(gotA) != len(gotB) {
		t.Fatalf("zero-prob plane changed the run: sent %d/%d dropped %d/%d delivered %d/%d",
			sentA, sentB, dropA, dropB, len(gotA), len(gotB))
	}
}

// TestLinkFaultsLeaveTheWorkloadStream: a plane that loses, duplicates
// and delays packets on a link draws every fate from its own stream, so
// after a few hundred datagrams the engine's next workload draw is still
// the first draw of a fresh engine on the same seed.
func TestLinkFaultsLeaveTheWorkloadStream(t *testing.T) {
	e, fp, h, r := faultyPair(t, faults.Config{
		Seed: 9, PktLoss: 0.1, PktDup: 0.1, PktDelayProb: 0.2, PktDelayMax: time.Millisecond,
	})
	_ = r.BindDatagram(9000, func(IPAddr, uint16, []byte) {})
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			_ = h.SendDatagram(r.Addr, 9000, 1, []byte("x"))
			p.Sleep(100 * time.Microsecond)
		}
	})
	e.Run()
	snap := fp.Obs.Snapshot()
	for _, name := range []string{"faults.pkt.drop", "faults.pkt.dup", "faults.pkt.delay"} {
		if snap.Count(name) == 0 {
			t.Errorf("%s = 0: the plane injected none", name)
		}
	}
	if got, want := e.Rand().Uint64(), sim.New(1).Rand().Uint64(); got != want {
		t.Fatalf("workload draw after faulty traffic = %#x, want %#x: link faults drew from the workload stream", got, want)
	}
}
