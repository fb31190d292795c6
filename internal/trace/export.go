// Exporters: Chrome trace-event JSON (loadable in Perfetto / chrome://
// tracing), a compact text tree, and the per-call latency-attribution
// report that reproduces the paper's setup-overhead breakdown (§6)
// from live spans instead of instrumented averages.
//
// Determinism contract: every rendering here is a pure function of the
// trace's spans, emitted in span-ID order with struct-ordered JSON
// fields, so two same-seed runs produce byte-identical output.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one trace-event record. Field order is the wire order
// (encoding/json emits struct fields in declaration order), and ts/dur
// are microseconds as the format requires.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  uint64            `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ChromeJSON renders traces as a single Chrome trace-event file. Each
// trace becomes one "process" (pid = trace ID); each component becomes
// one named "thread" within it, in first-seen span order. Complete
// events (ph "X") carry span and parent IDs in args so the causal tree
// survives the flat format.
func ChromeJSON(traces []*Trace) ([]byte, error) {
	var evs []chromeEvent
	for _, t := range traces {
		spans := append([]Span(nil), t.Spans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
		tids := map[string]int{}
		var comps []string
		for _, s := range spans {
			if _, ok := tids[s.Comp]; !ok {
				tids[s.Comp] = len(tids) + 1
				comps = append(comps, s.Comp)
			}
		}
		for _, comp := range comps {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: t.ID, Tid: tids[comp],
				Args: map[string]string{"name": comp},
			})
		}
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: t.ID, Tid: 0,
			Args: map[string]string{
				"name": fmt.Sprintf("call %d (%s, %s)", t.CallID, t.Name, t.Status),
			},
		})
		for _, s := range spans {
			dur := usec(s.dur())
			ev := chromeEvent{
				Name: s.Name, Cat: s.Comp, Ph: "X",
				Ts: usec(s.Start), Dur: &dur,
				Pid: t.ID, Tid: tids[s.Comp],
				Args: map[string]string{
					"parent": fmt.Sprintf("%d", s.Parent),
					"span":   fmt.Sprintf("%d", s.ID),
				},
			}
			if s.End < 0 {
				// Still running (active trace queried mid-call): clamp
				// the duration so viewers don't see negative extents.
				dur = 0
				ev.Args["open"] = "true"
			}
			if s.Open {
				ev.Args["open"] = "true"
			}
			evs = append(evs, ev)
		}
	}
	return json.Marshal(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// TextTree renders a trace as an indented span tree, children ordered
// by start time then span ID.
func TextTree(t *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d call %d %q status=%s spans=%d\n",
		t.ID, t.CallID, t.Name, t.Status, len(t.Spans))
	kids := map[uint64][]Span{}
	ids := map[uint64]bool{}
	for _, s := range t.Spans {
		ids[s.ID] = true
	}
	var roots []Span
	for _, s := range t.Spans {
		if s.Parent != 0 && ids[s.Parent] {
			kids[s.Parent] = append(kids[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(ss []Span) {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].ID < ss[j].ID
		})
	}
	order(roots)
	for id := range kids {
		order(kids[id])
	}
	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		indent := strings.Repeat("  ", depth+1)
		if s.End < 0 {
			// Still running: an active trace queried mid-call.
			fmt.Fprintf(&b, "%s%s/%s [%v..) still open\n", indent, s.Comp, s.Name, s.Start)
		} else {
			open := ""
			if s.Open {
				open = " (never ended)"
			}
			fmt.Fprintf(&b, "%s%s/%s %v [%v..%v]%s\n",
				indent, s.Comp, s.Name, s.dur(), s.Start, s.End, open)
		}
		for _, k := range kids[s.ID] {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// AttrPart is one component of the setup-latency breakdown.
type AttrPart struct {
	Comp string
	Name string
	Dur  time.Duration
}

// Attribution is the per-call setup-overhead breakdown: the direct
// children of the "call.setup" span partition its duration, mirroring
// the paper's table of setup-cost components. Unattributed is whatever
// the children do not cover (zero when the partition is exact).
type Attribution struct {
	CallID       uint32
	Total        time.Duration
	Parts        []AttrPart
	Unattributed time.Duration
}

// setupSpanName is the span whose children define the attribution
// report.
const setupSpanName = "call.setup"

// Attribute derives the setup breakdown from a trace. Returns false if
// the trace has no call.setup span.
func Attribute(t *Trace) (Attribution, bool) {
	var setup *Span
	for i := range t.Spans {
		if t.Spans[i].Name == setupSpanName {
			setup = &t.Spans[i]
			break
		}
	}
	if setup == nil || setup.End < 0 {
		// No setup span, or establishment is still in progress.
		return Attribution{}, false
	}
	a := Attribution{CallID: t.CallID, Total: setup.dur()}
	var covered time.Duration
	var parts []Span
	for _, s := range t.Spans {
		if s.Parent == setup.ID {
			parts = append(parts, s)
		}
	}
	sort.Slice(parts, func(i, j int) bool {
		if parts[i].Start != parts[j].Start {
			return parts[i].Start < parts[j].Start
		}
		return parts[i].ID < parts[j].ID
	})
	for _, s := range parts {
		a.Parts = append(a.Parts, AttrPart{Comp: s.Comp, Name: s.Name, Dur: s.dur()})
		covered += s.dur()
	}
	a.Unattributed = a.Total - covered
	return a, true
}

// String renders the attribution as the paper-style breakdown table.
func (a Attribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "call %d setup breakdown (total %v):\n", a.CallID, a.Total)
	pct := func(d time.Duration) float64 {
		if a.Total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(a.Total)
	}
	for _, p := range a.Parts {
		fmt.Fprintf(&b, "  %-24s %12v %6.1f%%\n", p.Comp+"/"+p.Name, p.Dur, pct(p.Dur))
	}
	fmt.Fprintf(&b, "  %-24s %12v %6.1f%%\n", "unattributed", a.Unattributed, pct(a.Unattributed))
	return b.String()
}
