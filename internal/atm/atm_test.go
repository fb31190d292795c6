package atm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := Cell{Header: Header{GFC: 0xA, VPI: 17, VCI: 1234, PTI: PTIUserData1, CLP: true}}
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	wire := c.Encode()
	if len(wire) != CellSize {
		t.Fatalf("wire size = %d", len(wire))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != c.Header {
		t.Fatalf("header round trip: got %+v want %+v", got.Header, c.Header)
	}
	if got.Payload != c.Payload {
		t.Fatal("payload round trip mismatch")
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode(make([]byte, 52)); err != errShortCell {
		t.Fatalf("err = %v, want errShortCell", err)
	}
}

func TestDecodeBadHEC(t *testing.T) {
	c := Cell{Header: Header{VCI: 99}}
	wire := c.Encode()
	wire[2] ^= 0x40 // corrupt a VCI bit
	if _, err := Decode(wire); err != errBadHEC {
		t.Fatalf("err = %v, want errBadHEC", err)
	}
}

func TestHECDetectsAllSingleBitHeaderErrors(t *testing.T) {
	c := Cell{Header: Header{GFC: 3, VPI: 5, VCI: 777, PTI: 4}}
	wire := c.Encode()
	for byteIdx := 0; byteIdx < headerSize; byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), wire...)
			mut[byteIdx] ^= 1 << bit
			if _, err := Decode(mut); err != errBadHEC {
				t.Fatalf("single-bit error at byte %d bit %d undetected", byteIdx, bit)
			}
		}
	}
}

func TestEndOfFrame(t *testing.T) {
	c := Cell{Header: Header{PTI: PTIUserData1}}
	if !c.EndOfFrame() {
		t.Fatal("PTIUserData1 not EOF")
	}
	c.PTI = 0
	if c.EndOfFrame() {
		t.Fatal("PTI 0 is EOF")
	}
}

func TestEncodeTo(t *testing.T) {
	c := Cell{Header: Header{VCI: 42}}
	buf := make([]byte, CellSize)
	if n := c.EncodeTo(buf); n != CellSize {
		t.Fatalf("EncodeTo = %d", n)
	}
	if !bytes.Equal(buf, c.Encode()) {
		t.Fatal("EncodeTo differs from Encode")
	}
}

func TestVCIFieldWidth(t *testing.T) {
	// All 16 VCI bits must survive the header packing.
	for _, v := range []VCI{0, 1, 0x00FF, 0x0F0F, 0xF0F0, 0xFFFF} {
		c := Cell{Header: Header{VCI: v}}
		got, err := Decode(c.Encode())
		if err != nil {
			t.Fatalf("vci %d: %v", v, err)
		}
		if got.VCI != v {
			t.Fatalf("vci %d decoded as %d", v, got.VCI)
		}
	}
}

func TestStringForms(t *testing.T) {
	if VCI(7).String() != "vci7" {
		t.Fatalf("VCI.String = %q", VCI(7).String())
	}
	c := Cell{Header: Header{VPI: 1, VCI: 2, PTI: PTIUserData1}}
	if got := c.String(); got != "cell{vpi=1 vci2 pti=1 EOF}" {
		t.Fatalf("Cell.String = %q", got)
	}
}

// Property: every representable header round-trips exactly.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(gfc byte, vpi uint8, vci uint16, pti uint8, clp bool, payload [PayloadSize]byte) bool {
		c := Cell{
			Header:  Header{GFC: gfc & 0xF, VPI: VPI(vpi), VCI: VCI(vci), PTI: payloadType(pti & 0x7), CLP: clp},
			Payload: payload,
		}
		got, err := Decode(c.Encode())
		return err == nil && got.Header == c.Header && got.Payload == c.Payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the HEC is a function of the first four header bytes only.
func TestQuickHECStability(t *testing.T) {
	f := func(h [4]byte) bool {
		a, b := hec(h), hec(h)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	c := Cell{Header: Header{VCI: 1000, PTI: PTIUserData1}}
	buf := make([]byte, CellSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EncodeTo(buf)
	}
}

func BenchmarkDecode(b *testing.B) {
	c := Cell{Header: Header{VCI: 1000}}
	wire := c.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
