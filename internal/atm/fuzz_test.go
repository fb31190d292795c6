package atm

import "testing"

// FuzzCellDecode holds the cell decoder: Decode never panics, rejects
// what is short or fails its HEC, and a cell it accepts encodes back to
// the 53 bytes it came from, every header bit included. `go test` runs
// the seeds; `go test -fuzz=FuzzCellDecode ./internal/atm` explores.
func FuzzCellDecode(f *testing.F) {
	for _, h := range []Header{
		{VCI: 33},
		{VPI: 1, VCI: 4095, PTI: PTIUserData1},
		{GFC: 0xf, VPI: 0xff, VCI: 0xffff, PTI: 7, CLP: true},
	} {
		c := Cell{Header: h}
		for i := range c.Payload {
			c.Payload[i] = byte(i)
		}
		buf := make([]byte, CellSize)
		c.EncodeTo(buf)
		f.Add(buf)
	}
	f.Add(make([]byte, CellSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		var out [CellSize]byte
		if c.EncodeTo(out[:]) != CellSize || string(out[:]) != string(data[:CellSize]) {
			t.Fatalf("decoded %v re-encodes to % x, not % x", &c, out, data[:CellSize])
		}
	})
}
