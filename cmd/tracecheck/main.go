// Command tracecheck validates Chrome trace-event JSON on stdin — the
// format internal/trace's exporter produces and Perfetto loads. It is
// the CI gate that keeps the exporter's output schema honest: `make ci`
// pipes a generated trace through it and fails the build on any drift.
//
//	go run ./cmd/xunetsim trace | go run ./cmd/tracecheck
//	xunetstat flight -json | tracecheck -v
//
// Checks: the top-level object has a traceEvents array and a
// displayTimeUnit; every event has a name, a one-letter phase that is
// "X" (complete span) or "M" (metadata), a pid and tid; X events carry
// non-negative ts and dur; M events are thread_name / process_name with
// a name arg; X events' parent/span args, when present, are decimal.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

// event mirrors one trace-event entry loosely: unknown fields are
// tolerated (the format is extensible) but the required ones are typed.
type event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   *float64          `json:"ts"`
	Dur  *float64          `json:"dur"`
	Pid  *uint64           `json:"pid"`
	Tid  *int              `json:"tid"`
	Args map[string]string `json:"args"`
}

type file struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

func main() {
	verbose := flag.Bool("v", false, "print a per-trace summary on success")
	allowEmpty := flag.Bool("allow-empty", false, "accept a trace with zero events")
	flag.Parse()

	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		fail("read: %v", err)
	}
	var f file
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		fail("parse: %v", err)
	}
	if f.DisplayTimeUnit == "" {
		fail("missing displayTimeUnit")
	}
	if len(f.TraceEvents) == 0 && !*allowEmpty {
		fail("no traceEvents (pass -allow-empty to accept)")
	}

	spans, metas := 0, 0
	pids := map[uint64]bool{}
	for i, ev := range f.TraceEvents {
		where := fmt.Sprintf("event %d (%q)", i, ev.Name)
		if ev.Name == "" {
			fail("event %d: empty name", i)
		}
		if ev.Pid == nil || ev.Tid == nil {
			fail("%s: missing pid/tid", where)
		}
		pids[*ev.Pid] = true
		switch ev.Ph {
		case "X":
			spans++
			if ev.Ts == nil || *ev.Ts < 0 {
				fail("%s: X event needs non-negative ts", where)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				fail("%s: X event needs non-negative dur", where)
			}
			for _, k := range []string{"parent", "span"} {
				if v, ok := ev.Args[k]; ok {
					if _, err := strconv.ParseUint(v, 10, 64); err != nil {
						fail("%s: arg %s=%q is not decimal", where, k, v)
					}
				}
			}
		case "M":
			metas++
			if ev.Name != "thread_name" && ev.Name != "process_name" {
				fail("%s: unexpected metadata event", where)
			}
			if ev.Args["name"] == "" {
				fail("%s: metadata event needs a name arg", where)
			}
		default:
			fail("%s: unexpected phase %q (want X or M)", where, ev.Ph)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "tracecheck: ok — %d traces, %d spans, %d metadata events\n",
			len(pids), spans, metas)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracecheck: "+format+"\n", args...)
	os.Exit(1)
}
