// Package aal5 implements the Xunet variant of the AAL5 adaptation
// layer: CPCS framing with a pad + 8-byte trailer, segmentation into
// 48-byte cell payloads, reassembly, and the two guarantees the paper
// calls out — "the receiving AAL can detect out of order frames and
// cell loss within a frame."
//
// Cell loss within a frame is detected by the trailer's length field and
// CRC-32. Out-of-order (or lost) frames are detected by the Xunet
// variant's per-VC frame sequence number, which this implementation
// carries in the CPCS-UU octet of the trailer (see SeqTracker).
package aal5

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"xunet/internal/atm"
)

// trailerSize is the CPCS-PDU trailer: UU(1) CPI(1) Length(2) CRC(4).
const trailerSize = 8

// maxSDU is the largest CPCS-SDU an AAL5 frame can carry (16-bit length).
const maxSDU = 65535

// Errors reported by frame parsing and reassembly.
var (
	errTooLong     = errors.New("aal5: SDU exceeds 65535 bytes")
	errShortFrame  = errors.New("aal5: frame shorter than one cell")
	errBadAlign    = errors.New("aal5: frame length not a multiple of 48")
	errBadLength   = errors.New("aal5: trailer length inconsistent (cell loss within frame)")
	errBadCRC      = errors.New("aal5: CRC-32 mismatch (corruption or cell loss within frame)")
	errFrameTooBig = errors.New("aal5: reassembly exceeded maximum frame size")
)

// BuildFrame wraps payload in a CPCS-PDU: payload, zero padding to a
// 48-byte boundary, and the trailer. uu is the CPCS-UU octet, which the
// Xunet variant uses as the per-VC frame sequence number.
func BuildFrame(payload []byte, uu byte) ([]byte, error) {
	return AppendFrame(nil, payload, uu)
}

// AppendFrame appends payload onto dst (usually dst[:0] of a reused
// scratch slice) and frames it with AppendTrailer; it allocates only
// when dst lacks capacity, so a warm real-mode data path never does.
func AppendFrame(dst, payload []byte, uu byte) ([]byte, error) {
	return AppendTrailer(append(dst, payload...), len(dst), uu)
}

// AppendTrailer makes the payload already in dst[start:] a CPCS-PDU in
// place: it appends zero padding to a 48-byte boundary and the trailer,
// whose CRC-32 covers the payload and pad. It allocates only when dst
// lacks capacity; an oversized payload returns dst[:start].
func AppendTrailer(dst []byte, start int, uu byte) ([]byte, error) {
	n := len(dst) - start
	if n > maxSDU {
		return dst[:start], errTooLong
	}
	pad := (atm.PayloadSize - (n+trailerSize)%atm.PayloadSize) % atm.PayloadSize
	dst = slices.Grow(dst, pad+trailerSize)[:len(dst)+pad+trailerSize]
	clear(dst[start+n:]) // recycled capacity: the pad and the CPI must read zero
	tr := dst[len(dst)-trailerSize:]
	tr[0] = uu
	binary.BigEndian.PutUint16(tr[2:], uint16(n))
	binary.BigEndian.PutUint32(tr[4:], pduCRC(dst[start:len(dst)-4]))
	return dst, nil
}

// tailTables holds the slicing-by-12 tables of the IEEE CRC-32:
// tailTables[k][b] is the register after byte b followed by k zero bytes.
var tailTables [12]crc32.Table

func init() {
	tailTables[0] = *crc32.IEEETable
	for k := 1; k < len(tailTables); k++ {
		for b, c := range tailTables[k-1] {
			tailTables[k][b] = c>>8 ^ tailTables[0][byte(c)]
		}
	}
}

// pduCRC returns crc32.ChecksumIEEE(b). The bytes a PDU's CRC covers end
// 4 bytes short of a 48-byte boundary, so past one cell they are a
// multiple of 16 — which crc32 folds with carry-less multiplies where
// the CPU has them — and 12 more, which crc32 would walk a byte at a
// time and pduCRC folds in one slicing-by-12 step. Shorter or other
// lengths go to crc32 whole.
func pduCRC(b []byte) uint32 {
	n := len(b) - 12
	if n < 64 || n%16 != 0 {
		return crc32.ChecksumIEEE(b)
	}
	c := ^crc32.ChecksumIEEE(b[:n]) ^ binary.LittleEndian.Uint32(b[n:])
	t, p := &tailTables, b[n+4:n+12]
	return ^(t[11][byte(c)] ^ t[10][byte(c>>8)] ^ t[9][byte(c>>16)] ^ t[8][c>>24] ^
		t[7][p[0]] ^ t[6][p[1]] ^ t[5][p[2]] ^ t[4][p[3]] ^
		t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]])
}

// ParseFrame validates a complete CPCS-PDU and returns its payload and
// UU octet. The returned payload aliases frame.
func ParseFrame(frame []byte) (payload []byte, uu byte, err error) {
	if len(frame) < atm.PayloadSize {
		return nil, 0, errShortFrame
	}
	if len(frame)%atm.PayloadSize != 0 {
		return nil, 0, errBadAlign
	}
	tr := frame[len(frame)-trailerSize:]
	if pduCRC(frame[:len(frame)-4]) != binary.BigEndian.Uint32(tr[4:]) {
		return nil, 0, errBadCRC
	}
	n := int(binary.BigEndian.Uint16(tr[2:]))
	// Valid padding is 0..47 bytes; anything else means cells vanished.
	if n+trailerSize > len(frame) || len(frame)-(n+trailerSize) >= atm.PayloadSize {
		return nil, 0, errBadLength
	}
	return frame[:n], tr[0], nil
}

// Segment splits a CPCS-PDU into cells on the given VPI/VCI, setting the
// AAL-indicate PTI bit on the final cell. frame must be a multiple of 48
// bytes (as produced by BuildFrame).
func Segment(frame []byte, vpi atm.VPI, vci atm.VCI) ([]atm.Cell, error) {
	return SegmentInto(nil, frame, vpi, vci)
}

// SegmentInto is Segment appending onto dst (usually dst[:0] of a
// reused scratch slice): it allocates only when dst lacks capacity.
func SegmentInto(dst []atm.Cell, frame []byte, vpi atm.VPI, vci atm.VCI) ([]atm.Cell, error) {
	if len(frame) == 0 || len(frame)%atm.PayloadSize != 0 {
		return dst, errBadAlign
	}
	start := len(dst)
	total := start + len(frame)/atm.PayloadSize
	dst = slices.Grow(dst, total-start)[:total]
	for i := start; i < total; i++ {
		// Recycled capacity holds the last frame's cells: set every field.
		dst[i] = atm.Cell{Header: atm.Header{VPI: vpi, VCI: vci}}
		copy(dst[i].Payload[:], frame)
		frame = frame[atm.PayloadSize:]
	}
	dst[total-1].PTI = atm.PTIUserData1
	return dst, nil
}

// Reassembler rebuilds frames from the cell stream of one VC. It is the
// receive half of the Hobbit board's SAR engine. Not safe for concurrent
// use; the simulation serializes all access.
//
// One buffer serves every frame: it grows to the largest frame seen and
// is kept across frames, discards and Reset, so the payload Push returns
// aliases it and is valid only until the next Push or Reset — a caller
// that keeps the bytes copies them first.
type Reassembler struct {
	buf      []byte
	maxFrame int

	// Frames counts successfully reassembled frames; Errors counts
	// frames discarded for CRC/length violations (cell loss within a
	// frame, per the paper's guarantee).
	Frames uint64
	Errors uint64
}

// NewReassembler returns a reassembler that rejects frames longer than
// maxFrame bytes (0 means the AAL5 maximum).
func NewReassembler(maxFrame int) *Reassembler {
	if maxFrame <= 0 {
		maxFrame = maxSDU + trailerSize + atm.PayloadSize
	}
	return &Reassembler{maxFrame: maxFrame}
}

// Push adds one cell. When the cell completes a frame, Push returns the
// payload (valid until the next Push or Reset), its UU (frame sequence)
// octet and done=true. A CRC or length violation discards the partial
// frame and returns an error with done=true so callers can count the
// loss.
func (r *Reassembler) Push(c *atm.Cell) (payload []byte, uu byte, done bool, err error) {
	r.buf = append(r.buf, c.Payload[:]...)
	if len(r.buf) > r.maxFrame {
		r.buf = r.buf[:0]
		r.Errors++
		return nil, 0, true, errFrameTooBig
	}
	if !c.EndOfFrame() {
		return nil, 0, false, nil
	}
	frame := r.buf
	r.buf = r.buf[:0]
	payload, uu, err = ParseFrame(frame)
	if err != nil {
		r.Errors++
		return nil, 0, true, err
	}
	r.Frames++
	return payload, uu, true, nil
}

// Pending reports how many bytes of an incomplete frame are buffered.
func (r *Reassembler) Pending() int { return len(r.buf) }

// Reset discards any partial frame (used when a VC is torn down),
// keeping the buffer's capacity for the next one.
func (r *Reassembler) Reset() { r.buf = r.buf[:0] }

// SeqTracker implements the Xunet-variant out-of-order frame detection:
// each frame on a VC carries an 8-bit sequence number in CPCS-UU, and
// the receiver verifies it advances by exactly one.
type SeqTracker struct {
	next    byte
	started bool

	// InOrder and OutOfOrder count checked frames.
	InOrder    uint64
	OutOfOrder uint64
}

// Check verifies frame sequence number seq. It returns ok=false and the
// (signed, mod-256) gap when frames were lost or reordered, then
// resynchronizes to seq+1.
func (t *SeqTracker) Check(seq byte) (ok bool, gap int) {
	if !t.started {
		t.started = true
		t.next = seq + 1
		t.InOrder++
		return true, 0
	}
	g := int(int8(seq - t.next))
	t.next = seq + 1
	if g == 0 {
		t.InOrder++
		return true, 0
	}
	t.OutOfOrder++
	return false, g
}

// String summarizes tracker state for traces.
func (t *SeqTracker) String() string {
	return fmt.Sprintf("seq{next=%d ok=%d ooo=%d}", t.next, t.InOrder, t.OutOfOrder)
}
