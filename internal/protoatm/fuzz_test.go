package protoatm

import (
	"errors"
	"testing"

	"xunet/internal/atm"
)

// FuzzProtoATMHeader fuzzes the encapsulation decoder, the one parser
// on the IP side of a router. `go test` runs the seed corpus (here and
// under testdata/fuzz); `go test -fuzz=FuzzProtoATMHeader
// ./internal/protoatm` explores further. For any bytes:
//   - decode never panics, and what it accepts it consumed in full;
//   - a decoded header re-encodes to one that decodes to the same fields,
//     and so does the same header checksummed;
//   - that checksummed header is rejected with errBadChecksum once any
//     byte past the flags and length octets is flipped by mask.
func FuzzProtoATMHeader(f *testing.F) {
	f.Add(appendHeader(nil, "mh.h1", 7, 40, false), uint16(3), uint8(0x10))
	f.Add(appendHeader(nil, "ucb.pc7", 1<<31, 4095, true), uint16(9), uint8(0xff))
	f.Add([]byte{flagChecksum, 3}, uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask uint8) {
		h, n, err := decode(data)
		withChecksum := false
		if err == nil {
			if n != headerLen(data[0], data[1]) || n > len(data) {
				t.Fatalf("decoded %d bytes of %d, header length %d", n, len(data), headerLen(data[0], data[1]))
			}
			withChecksum = data[0]&flagChecksum != 0
			enc := appendHeader(nil, atm.Addr(h.src), h.seq, h.vci, withChecksum)
			again, m, err := decode(enc)
			if err != nil || m != len(enc) || string(again.src) != string(h.src) || again.seq != h.seq || again.vci != h.vci {
				t.Fatalf("round trip of %+v: %+v, %d of %d bytes, %v", h, again, m, len(enc), err)
			}
			if data[0]&^flagChecksum == 0 && string(enc) != string(data[:n]) {
				t.Fatalf("re-encoding changed the header: %x, was %x", enc, data[:n])
			}
		} else {
			// Undecodable input still seeds the checksum property.
			h = header{src: data[:min(len(data), 255)], seq: uint32(pos) * 2654435761, vci: atm.VCI(pos) % (atm.MaxVCI + 1)}
		}
		ck := appendHeader(nil, atm.Addr(h.src), h.seq, h.vci, true)
		if got, m, err := decode(ck); err != nil || m != len(ck) || string(got.src) != string(h.src) || got.seq != h.seq || got.vci != h.vci {
			t.Fatalf("checksummed %+v decodes as %+v, %d of %d bytes, %v", h, got, m, len(ck), err)
		}
		if mask == 0 {
			return
		}
		i := 2 + int(pos)%(len(ck)-2)
		ck[i] ^= mask
		if _, _, err := decode(ck); !errors.Is(err, errBadChecksum) {
			t.Fatalf("byte %d of %x flipped by %#x: %v, want errBadChecksum", i, ck, mask, err)
		}
	})
}
