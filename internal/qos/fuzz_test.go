package qos

import "testing"

// FuzzQoSParse holds the wire grammar every peer SETUP's QoS string goes
// through on its way in: Parse never panics, and a descriptor it accepts
// prints back to a string that parses to the same descriptor. `go test`
// runs the seeds; `go test -fuzz=FuzzQoSParse ./internal/qos` explores.
func FuzzQoSParse(f *testing.F) {
	for _, s := range []string{
		"", "cbr:64", "vbr:1536", "besteffort:0", "cbr:4294967295", "vbr:007",
		"cbr", ":64", "cbr:", "cbr:-1", "cbr:4294967296", "gold:10", "cbr:64:1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(q.String())
		if err != nil || back != q {
			t.Fatalf("Parse(%q) = %v, whose String %q parses to %v, %v", s, q, q.String(), back, err)
		}
	})
}
