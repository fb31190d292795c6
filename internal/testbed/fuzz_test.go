package testbed

import (
	"bytes"
	"testing"
)

// FuzzTunnel holds the alternative carriers' frame header decoder
// against any datagram or stream record: parseTunnel never panics, and
// what it accepts is a header tunnelHeader writes back byte for byte,
// followed by the frame it returns. `go test` runs the seeds; `go test
// -fuzz=FuzzTunnel ./internal/testbed` explores.
func FuzzTunnel(f *testing.F) {
	f.Add(append(tunnelHeader(300, 7), 1, 2, 3))
	f.Add(tunnelHeader(4095, 1<<31))
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		vci, seq, frame, ok := parseTunnel(data)
		if !ok {
			return
		}
		if enc := append(tunnelHeader(vci, seq), frame...); !bytes.Equal(enc, data) {
			t.Fatalf("%x parses to vci %d seq %d frame %x, which encodes as %x", data, vci, seq, frame, enc)
		}
	})
}
