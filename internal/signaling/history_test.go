package signaling_test

import (
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
// router's full Trace line log, its final Events(256) JSON (one record
// a line) and its MGMT trace text (256 events) to its golden: the
// history's values, its renderings and its wire shape stay byte for
// byte what they were.
func TestEventHistoryGolden(t *testing.T) {
	logs := map[*signaling.Sighost]*strings.Builder{}
	n, _ := chaosStorm(t, func(sh *signaling.Sighost) {
		b := &strings.Builder{}
		logs[sh] = b
		sh.Trace = func(line string) { fmt.Fprintf(b, "%s\n", line) }
		sh.EnableTrace(true)
	})
	for _, r := range n.Routers {
		var body string
		var qerr error
		r.Stack.Spawn("operator", func(p *kern.Proc) {
			body, qerr = r.Lib.Client(p).Query(signaling.MgmtTrace, 0, 256)
		})
		n.RunUntil(n.E.Now() + 10*time.Second)
		if qerr != nil {
			t.Fatalf("%s: MGMT trace: %v", r.Stack.Addr, qerr)
		}
		evs, err := json.Marshal(r.Sig.SH.Events(256))
		if err != nil {
			t.Fatal(err)
		}
		name := "history-" + string(r.Stack.Addr)
		checkGolden(t, name+"-log", []byte(logs[r.Sig.SH].String()))
		checkGolden(t, name+"-events", oneRecordPerLine(evs))
		checkGolden(t, name+"-mgmt", []byte(body))
	}
}
