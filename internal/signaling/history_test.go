package signaling_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/signaling"
)

// TestEventHistoryGolden runs the chaos storm with both routers' event
// rings on and the legacy Trace callback attached, then holds each
// router's full Trace line log, its final Events(256) JSON and its MGMT
// trace text (256 events) to a recorded SHA-256: the history's values,
// its renderings and its wire shape stay byte for byte what they were.
func TestEventHistoryGolden(t *testing.T) {
	logs := map[*signaling.Sighost]*strings.Builder{}
	n, _ := chaosStorm(t, func(sh *signaling.Sighost) {
		b := &strings.Builder{}
		logs[sh] = b
		sh.Trace = func(line string) { fmt.Fprintf(b, "%s\n", line) }
		sh.EnableTrace(true)
	})
	want := [][3]string{
		{"7777cb5ff110bebae579dc6babdf43c0a177138cee1daadd6c5f84b48ae229b8",
			"f6c1023a62acd3182921a7aa0c466533f5f1d4be8c83eab13bc2063f31f96f89",
			"6a7141261da93805db20f802b47d5463c067136dd9049cc7a136b84cba1fcee7"},
		{"e1115af1213bda258c3f71129538107d881761f5fd129008fc2058e0f80d3d3a",
			"b7c02839e90216b58a0aceaf356e06d8185722b49a2f327073b5367f6eba13d6",
			"21a412c93f00e485fba867539c6307ef04901dea53b51beb7259096b97cbe96f"},
	}
	for i, r := range n.Routers {
		var body string
		var qerr error
		r.Stack.Spawn("operator", func(p *kern.Proc) {
			body, qerr = r.Lib.Client(p).Query(signaling.MgmtTrace, 0, 256)
		})
		n.RunUntil(n.E.Now() + 10*time.Second)
		if qerr != nil {
			t.Fatalf("router %d: MGMT trace: %v", i, qerr)
		}
		evs, err := json.Marshal(r.Sig.SH.Events(256))
		if err != nil {
			t.Fatal(err)
		}
		got := [3]string{
			fmt.Sprintf("%x", sha256.Sum256([]byte(logs[r.Sig.SH].String()))),
			fmt.Sprintf("%x", sha256.Sum256(evs)),
			fmt.Sprintf("%x", sha256.Sum256([]byte(body))),
		}
		for j, what := range []string{"Trace line log", "Events(256) JSON", "MGMT trace text"} {
			if got[j] != want[i][j] {
				t.Errorf("router %d: %s hashes to %s, want %s", i, what, got[j], want[i][j])
			}
		}
	}
}
