package anand

import (
	"bytes"
	"testing"
	"time"

	"xunet/internal/kern"
)

// FuzzDecode holds the relay decoder against any bytes read off an
// anand client-server connection: decode never panics, and a frame it
// accepts is an 18-byte up frame or a 4-byte down command, possibly
// with trailing bytes, whose encoder writes back the bytes decode read,
// which decode to the same value again. `go test` runs the seeds; `go
// test -fuzz=FuzzDecode ./internal/anand` explores.
func FuzzDecode(f *testing.F) {
	f.Add(encodeUp(kern.KMsg{Kind: kern.MsgBind, VCI: 1234, Cookie: 0xBEEF, PID: 99, At: 3 * time.Millisecond}))
	f.Add(encodeDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: 777}))
	f.Add([]byte{frameUp, 1, 2, 3})
	f.Add([]byte{99, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		up, down, isUp, err := decode(data)
		if err != nil {
			return
		}
		if isUp != (data[0] == frameUp) {
			t.Fatalf("kind %d decoded as up %v", data[0], isUp)
		}
		enc := encodeDown(down)
		if isUp {
			enc = encodeUp(up)
		}
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("%x decodes to up %+v down %+v, which encodes as %x", data, up, down, enc)
		}
		if up2, down2, isUp2, err := decode(enc); err != nil || isUp2 != isUp || up2 != up || down2 != down {
			t.Fatalf("%x decodes to up %+v down %+v (up %v, %v), want up %+v down %+v", enc, up2, down2, isUp2, err, up, down)
		}
	})
}
