package rtnet

// The carrier's wall-clock benchmarks: loopback frame throughput,
// batched vs fallback on identical hardware, with per-op allocation
// accounting and the syscalls-per-frame amortization made explicit.
// `go run ./bench` carries the numbers that are tracked (real_frames);
// these are for measuring while you work. What is gated is the
// mechanism, in TestBatchingAmortizesSyscalls: sys/frame (fallback ÷
// batched) ≥ 2, normally ~30× with the default batch of 32.
//
// Wall clock is deliberately not gated. On a modern kernel a syscall
// entry costs ~0.1 µs while loopback per-datagram stack processing
// costs ~3 µs, so collapsing 64 traps into 2 alone moved elapsed time
// by ~1.2×; what moved it several times over was sending each run of
// equal frames as one train (UDP GSO out, GRO in), which crosses that
// stack once per train. The sys/frame metric isolates the part
// sendmmsg/recvmmsg amortize, and TestDatagramTrains and the
// tx.msgs/rx.msgs counters the part trains do. (On the 1994-era
// hardware the paper targets the trap itself was the dominant term,
// which is why §5 argues per-message kernel crossings tax native-mode
// ATM; the mechanism gate checks we removed those crossings.)

import (
	"fmt"
	"testing"

	"xunet/internal/atm"
	"xunet/internal/obs"
)

// benchFrames measures one full tx+rx cycle per op: coalesce a burst,
// flush (one sendmmsg on the batched path, burst writes on fallback),
// then drain it back off the socket. Single-goroutine by design — on
// the 1-CPU bench hosts a pump goroutine would measure scheduler churn,
// not the syscall amortization under test.
func benchFrames(b *testing.B, unbatched bool, frameLen int) {
	var got int
	rx := Config{Obs: obs.NewRegistry(), OnSig: func(*Peer, []byte) { got++ }}
	txc, rxc, ab, _ := newPair(b, unbatched, rx)
	frame := make([]byte, frameLen)
	const burst = DefaultBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendBurst(b, ab, frame, burst)
		drain(b, rxc, &got, (i+1)*burst)
	}
	b.StopTimer()
	frames := float64(b.N) * burst
	b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(sysPerFrame(txc, rxc, frames), "sys/frame")
}

func sendBurst(t testing.TB, p *Peer, frame []byte, n int) {
	t.Helper()
	for j := 0; j < n; j++ {
		if err := p.SendSig(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// sysPerFrame is the syscalls tx spent sending plus those rx spent
// receiving, per frame, from the carriers' own counters.
func sysPerFrame(tx, rx *Carrier, frames float64) float64 {
	return float64(tx.txFrames.Value()-tx.txSyscallsSaved.Value()+rx.rxBatches.Value()) / frames
}

// TestBatchingAmortizesSyscalls is the mechanism gate on the batched
// carrier: one DefaultBatch burst in each mode, and fallback must spend
// at least twice the syscalls per frame that sendmmsg/recvmmsg do.
// Where the kernel takes trains (UDP_SEGMENT and UDP_GRO), the batched
// burst is also one message out and one datagram in. The counters are
// deterministic at any iteration count, unlike the wall clock they
// explain.
//
// A burst of DefaultBatch frames of distinct lengths forms no train: it
// is DefaultBatch datagrams, and a receive syscall returns at most one
// vector of them. With UDP_GRO that vector is 4 slots of 64 KiB at the
// defaults, not 32, so such a backlog costs 8 receive syscalls instead
// of 1; the row checks the receiver achieves its full vector.
func TestBatchingAmortizesSyscalls(t *testing.T) {
	var trains string
	burst := func(unbatched bool) float64 {
		var got int
		rx := Config{Obs: obs.NewRegistry(), OnSig: func(*Peer, []byte) { got++ }}
		txc, rxc, ab, _ := newPair(t, unbatched, rx)
		if !unbatched && !txc.Batched() {
			t.Skip("no sendmmsg/recvmmsg on this platform")
		}
		sendBurst(t, ab, make([]byte, 256), DefaultBatch)
		drain(t, rxc, &got, DefaultBatch)
		if unbatched {
			return sysPerFrame(txc, rxc, DefaultBatch)
		}
		msgs, dgrams := txc.txMsgs.Value(), rxc.rxMsgs.Value()
		trains = fmt.Sprintf("; %d tx messages, %d rx datagrams", msgs, dgrams)
		if txc.gso && rxc.gro && (msgs != 1 || dgrams != 1) {
			t.Errorf("a %d-frame train went out as %d messages and came in as %d datagrams, want 1 and 1", DefaultBatch, msgs, dgrams)
		}
		sys := sysPerFrame(txc, rxc, DefaultBatch)

		// Distinct lengths. The loopback may hand part of a backlog to
		// ksoftirqd on a loaded box, which splits it across more
		// receives, so the row takes the best of three bursts.
		vec := rxVector(rxc)
		want := (DefaultBatch + vec - 1) / vec
		best := 0
		for try := 0; try < 3 && best != want; try++ {
			b0, m0 := rxc.rxBatches.Value(), rxc.rxMsgs.Value()
			for j := 0; j < DefaultBatch; j++ {
				if err := ab.SendSig(make([]byte, 64+j)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ab.Flush(); err != nil {
				t.Fatal(err)
			}
			drain(t, rxc, &got, got+DefaultBatch)
			if m := rxc.rxMsgs.Value() - m0; m != DefaultBatch {
				t.Fatalf("%d frames of distinct lengths came in as %d datagrams", DefaultBatch, m)
			}
			if calls := int(rxc.rxBatches.Value() - b0); best == 0 || calls < best {
				best = calls
			}
		}
		if best != want {
			t.Errorf("%d datagrams of distinct lengths took %d receive syscalls at best, want %d (%d per call, gro=%v)",
				DefaultBatch, best, want, vec, rxc.gro)
		}
		trains += fmt.Sprintf("; %d distinct lengths: %d receive syscalls (%d datagrams each, gro=%v)", DefaultBatch, best, vec, rxc.gro)
		return sys
	}
	batched, fallback := burst(false), burst(true)
	if fallback < 2*batched {
		t.Errorf("sys/frame: fallback %.3f, batched %.3f — batching saves under 2x", fallback, batched)
	}
	t.Logf("sys/frame: fallback %.3f, batched %.3f (%.0fx)%s", fallback, batched, fallback/batched, trains)
}

func BenchmarkRealFrames(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		if !osBatched {
			b.Skip("no sendmmsg/recvmmsg on this platform")
		}
		benchFrames(b, false, 256)
	})
	b.Run("fallback", func(b *testing.B) {
		benchFrames(b, true, 256)
	})
}

// BenchmarkRealFramesAAL5 runs the same cycle through the AAL5 data
// path (CPCS framing + CRC-32 + sequence check per frame) so the
// report shows what the adaptation layer costs on top of the carrier.
func BenchmarkRealFramesAAL5(b *testing.B) {
	if !osBatched {
		b.Skip("no sendmmsg/recvmmsg on this platform")
	}
	var got int
	var rxLink AAL5Link
	rx := Config{Obs: obs.NewRegistry(), OnData: func(from *Peer, vci atm.VCI, payload []byte) {
		if _, err := rxLink.Recv(payload); err != nil {
			b.Error(err)
		}
		got++
	}}
	_, rxc, ab, _ := newPair(b, false, rx)
	link := &AAL5Link{P: ab, VCI: 42}
	payload := make([]byte, 256)
	const burst = DefaultBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := link.Send(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := ab.Flush(); err != nil {
			b.Fatal(err)
		}
		want := (i + 1) * burst
		for got < want {
			if _, err := rxc.RecvOnce(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "frames/s")
}
