package aal5

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzAAL5 holds the frame builder, the frame parser and the
// reassembler against any byte string: framed as a payload, it carries
// crc32.ChecksumIEEE of all but the trailer's CRC field in that field;
// taken as a CPCS-PDU, ParseFrame never panics on it, a payload it
// accepts lies inside the frame and builds a frame that parses back to
// it, and the same bytes cut into cells and pushed through a Reassembler
// reach the same verdict on the last cell, with none before. `go test`
// runs the seeds; `go test -fuzz=FuzzAAL5 ./internal/aal5` explores.
func FuzzAAL5(f *testing.F) {
	for i, n := range []int{0, 1, 40, 41, 96, 1400} {
		frame, err := BuildFrame(bytes.Repeat([]byte{byte(n)}, n), byte(i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(make([]byte, 48))
	f.Add([]byte{1, 2, 3})
	r := NewReassembler(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if frame, err := BuildFrame(data[:min(len(data), maxSDU)], 0); err != nil ||
			binary.BigEndian.Uint32(frame[len(frame)-4:]) != crc32.ChecksumIEEE(frame[:len(frame)-4]) {
			t.Fatalf("the %d-byte frame of a %d-byte payload does not carry its IEEE CRC-32 (%v)", len(frame), len(data), err)
		}
		payload, uu, err := ParseFrame(data)
		if err == nil {
			if len(payload)+trailerSize > len(data) || !bytes.Equal(payload, data[:len(payload)]) {
				t.Fatalf("payload of %d bytes is not a prefix of the %d-byte frame", len(payload), len(data))
			}
			frame, berr := BuildFrame(payload, uu)
			p2, uu2, perr := ParseFrame(frame)
			if berr != nil || perr != nil || !bytes.Equal(p2, payload) || uu2 != uu {
				t.Fatalf("rebuilt frame parses to %d bytes uu %d (%v, %v), want %d bytes uu %d", len(p2), uu2, berr, perr, len(payload), uu)
			}
		}
		cells, serr := Segment(data, 0, 33)
		if serr != nil || len(data) > r.maxFrame {
			return
		}
		r.Reset()
		for i := range cells {
			got, guu, done, gerr := r.Push(&cells[i])
			if last := i == len(cells)-1; done != last || !last && gerr != nil {
				t.Fatalf("cell %d of %d: done %v, err %v", i+1, len(cells), done, gerr)
			}
			if i < len(cells)-1 {
				continue
			}
			if (gerr == nil) != (err == nil) || err == nil && (!bytes.Equal(got, payload) || guu != uu) {
				t.Fatalf("reassembled %d bytes uu %d (%v), parsed %d bytes uu %d (%v)", len(got), guu, gerr, len(payload), uu, err)
			}
		}
		if r.Pending() != 0 {
			t.Fatalf("%d bytes pending after the last cell", r.Pending())
		}
	})
}
