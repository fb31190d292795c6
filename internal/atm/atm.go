// Package atm implements the ATM cell layer of the reproduced Xunet 2
// network: 53-byte cells with a UNI-format 5-byte header (GFC, VPI, VCI,
// PTI, CLP, HEC), header error control (CRC-8), and the ATM address and
// VCI types used throughout the stack.
//
// The paper's native-mode stack exposes the VCI directly to applications
// — "the Virtual Circuit Identifier (VCI) provides a single index into a
// table of protocol control blocks" — so VCI is the identity every other
// package keys on.
package atm

import (
	"errors"
	"fmt"
	"time"

	"xunet/internal/trace"
)

// CellSize is the size of an ATM cell on the wire.
const CellSize = 53

// headerSize is the size of the cell header.
const headerSize = 5

// PayloadSize is the cell payload capacity (the AAL5 SAR unit).
const PayloadSize = CellSize - headerSize

// VCI is a virtual circuit identifier. Xunet hands out 16-bit VCIs; the
// cookie capability in sighost is likewise 16 bits.
type VCI uint16

// MaxVCI bounds the PCB and switching tables (a direct array index, per
// the paper's non-multiplexed design).
const MaxVCI VCI = 4095

// String renders the VCI for logs and traces.
func (v VCI) String() string { return fmt.Sprintf("vci%d", uint16(v)) }

// Grow extends a VCI-indexed table to hold vci. The stack's per-VCI
// tables are slices indexed this way, grown on a VCI's first use.
func Grow[T any](tab []T, vci VCI) []T {
	if int(vci) >= len(tab) {
		tab = append(tab, make([]T, int(vci)+1-len(tab))...)
	}
	return tab
}

// VPI is a virtual path identifier. Xunet's testbed used a single
// virtual path; the type exists for header fidelity.
type VPI uint8

// Addr is an ATM endpoint address. Xunet used short dotted names such as
// "mh.rt" (Murray Hill router); this reproduction keeps them as opaque
// strings exactly as the signaling protocol treats them.
type Addr string

// payloadType is a payload-type-indicator value. The low bit of the
// user-data PTI is the AAL-indicate bit: AAL5 sets it on the final cell
// of a frame, and every other user cell carries PTI 0.
type payloadType uint8

// PTIUserData1 marks the final user cell of an AAL5 frame.
const PTIUserData1 payloadType = 1

// Header is a decoded ATM cell header.
type Header struct {
	GFC byte // generic flow control (UNI only, 4 bits)
	VPI VPI
	VCI VCI
	PTI payloadType // 3 bits
	CLP bool        // cell loss priority
}

// Cell is one ATM cell: header plus a full 48-byte payload. Cells are
// values; copying one copies its payload.
type Cell struct {
	Header
	Payload [PayloadSize]byte

	// TC/TCAt carry the causal-trace context of the frame this cell
	// belongs to through the simulated fabric: TC identifies the sampled
	// trace (zero when untraced) and TCAt the sim time the cell entered
	// the current hop. They are simulation metadata — Encode/Decode do
	// not carry them, exactly as a real cell has no room for them.
	TC   trace.Context
	TCAt time.Duration
}

// EndOfFrame reports whether this cell carries the AAL-indicate bit
// (final cell of an AAL5 frame).
func (c *Cell) EndOfFrame() bool { return c.PTI&1 == 1 }

// hecTable is the CRC-8 table for the HEC polynomial
// x^8 + x^2 + x + 1 (0x07).
var hecTable [256]byte

func init() {
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		hecTable[i] = crc
	}
}

// hecCoset is XORed into the HEC per I.432 to improve cell delineation.
const hecCoset = 0x55

// hec computes the header error control byte over the first four header
// octets.
func hec(h4 [4]byte) byte {
	var crc byte
	for _, b := range h4 {
		crc = hecTable[crc^b]
	}
	return crc ^ hecCoset
}

// Errors returned by Decode.
var (
	errShortCell = errors.New("atm: cell shorter than 53 bytes")
	errBadHEC    = errors.New("atm: header error control mismatch")
)

// EncodeTo serializes the cell into buf, which must hold at least
// CellSize bytes. It returns the number of bytes written.
func (c *Cell) EncodeTo(buf []byte) int {
	_ = buf[CellSize-1]
	vci := uint16(c.VCI)
	buf[0] = c.GFC<<4 | byte(c.VPI)>>4
	buf[1] = byte(c.VPI)<<4 | byte(vci>>12)
	buf[2] = byte(vci >> 4)
	buf[3] = byte(vci)<<4 | byte(c.PTI&0x7)<<1
	if c.CLP {
		buf[3] |= 1
	}
	buf[4] = hec([4]byte{buf[0], buf[1], buf[2], buf[3]})
	copy(buf[headerSize:], c.Payload[:])
	return CellSize
}

// Decode parses a 53-byte wire cell, verifying the HEC.
func Decode(buf []byte) (Cell, error) {
	var c Cell
	if len(buf) < CellSize {
		return c, errShortCell
	}
	if hec([4]byte{buf[0], buf[1], buf[2], buf[3]}) != buf[4] {
		return c, errBadHEC
	}
	c.GFC = buf[0] >> 4
	c.VPI = VPI(buf[0]<<4 | buf[1]>>4)
	c.VCI = VCI(uint16(buf[1]&0x0f)<<12 | uint16(buf[2])<<4 | uint16(buf[3])>>4)
	c.PTI = payloadType(buf[3] >> 1 & 0x7)
	c.CLP = buf[3]&1 == 1
	copy(c.Payload[:], buf[headerSize:])
	return c, nil
}

// String summarizes the cell header for traces.
func (c *Cell) String() string {
	eof := ""
	if c.EndOfFrame() {
		eof = " EOF"
	}
	return fmt.Sprintf("cell{vpi=%d %v pti=%d%s}", c.VPI, c.VCI, c.PTI, eof)
}
