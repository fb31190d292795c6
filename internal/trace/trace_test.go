package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock is a controllable time source for collector tests.
type fakeClock struct{ t time.Duration }

func (f *fakeClock) now() time.Duration { return f.t }

func newTestCollector() (*Collector, *fakeClock) {
	clk := &fakeClock{}
	c := NewCollector(clk.now)
	c.SetEnabled(true)
	return c, clk
}

func TestDisabledCollectorIsInert(t *testing.T) {
	clk := &fakeClock{}
	c := NewCollector(clk.now)
	if c.enabled() {
		t.Fatal("new collector should start disabled")
	}
	if ctx := c.StartTrace("sighost", "call", 1); ctx.Sampled() {
		t.Fatalf("disabled collector sampled a trace: %+v", ctx)
	}
	var nilC *Collector
	if nilC.enabled() {
		t.Fatal("nil collector claims enabled")
	}
	// Every operation must be a no-op on a nil collector and zero context.
	nilC.EndSpan(Context{})
	nilC.Record(Context{}, "x", "y", 0, 1)
	nilC.FinishTrace(Context{}, StatusOK)
	nilC.FinishTraceAt(Context{}, StatusOK, 0)
	if ctx := nilC.StartCallTrace("", "sighost", "call", 1, 0); ctx.Sampled() {
		t.Fatalf("nil collector sampled a trace: %+v", ctx)
	}
	if _, ok := nilC.ByCall("", 1); ok {
		t.Fatal("nil collector returned a trace")
	}
}

func TestSpanTreeLifecycle(t *testing.T) {
	c, clk := newTestCollector()
	root := c.StartTrace("sighost", "echo", 7)
	if !root.Sampled() {
		t.Fatal("enabled collector did not sample")
	}
	clk.t = 10 * time.Millisecond
	child := c.StartSpan(root, "sighost", "call.setup")
	clk.t = 25 * time.Millisecond
	c.Record(child, "xswitch", "hop", 12*time.Millisecond, 20*time.Millisecond)
	c.EndSpan(child)
	clk.t = 30 * time.Millisecond
	c.FinishTrace(root, StatusOK)

	got, ok := c.ByCall("", 7)
	if !ok {
		t.Fatal("finished trace not found by call ID")
	}
	if got.Status != StatusOK || len(got.Spans) != 3 {
		t.Fatalf("unexpected trace: status=%s spans=%d", got.Status, len(got.Spans))
	}
	if got.Spans[0].Parent != 0 || got.Spans[1].Parent != got.Spans[0].ID || got.Spans[2].Parent != got.Spans[1].ID {
		t.Fatalf("parent links wrong: %+v", got.Spans)
	}
	if got.Spans[0].End != 30*time.Millisecond {
		t.Fatalf("root not force-closed at finish time: %v", got.Spans[0].End)
	}
	if got.Spans[0].Open {
		t.Fatal("root span must not be flagged Open")
	}
	if got.Spans[1].dur() != 15*time.Millisecond {
		t.Fatalf("child duration %v, want 15ms", got.Spans[1].dur())
	}
}

func TestHeadSampling(t *testing.T) {
	c, _ := newTestCollector()
	c.SetSampleEvery(3)
	var kept int
	for i := 0; i < 9; i++ {
		ctx := c.StartTrace("sighost", "call", uint32(100+i))
		if ctx.Sampled() {
			kept++
			c.FinishTrace(ctx, StatusOK)
		}
	}
	if kept != 3 {
		t.Fatalf("sampled %d of 9 with sampleEvery=3", kept)
	}
	st := c.StatsNow()
	if st.Started != 9 || st.Sampled != 3 || st.Completed != 3 {
		t.Fatalf("stats %+v", st)
	}
	// Descendant ops on an unsampled context must be inert.
	unsampled := Context{}
	if c.StartSpan(unsampled, "x", "y").Sampled() {
		t.Fatal("child of unsampled context got sampled")
	}
}

func TestSpanCapDropsExcess(t *testing.T) {
	c, _ := newTestCollector()
	c.spanCap = 4
	root := c.StartTrace("sighost", "call", 1)
	for i := 0; i < 10; i++ {
		c.Record(root, "xswitch", "hop", 0, 1)
	}
	c.FinishTrace(root, StatusOK)
	got, _ := c.ByCall("", 1)
	if len(got.Spans) != 4 {
		t.Fatalf("span cap not enforced: %d spans", len(got.Spans))
	}
	if st := c.StatsNow(); st.DroppedSpans != 7 {
		t.Fatalf("dropped %d spans, want 7", st.DroppedSpans)
	}
}

func TestFlightRecorderEvictionAndDump(t *testing.T) {
	c, _ := newTestCollector()
	c.capacity = 2
	var dumped []string
	c.OnDump(func(tr *Trace, tree string) {
		dumped = append(dumped, tree)
	})
	statuses := []string{StatusOK, StatusReject, StatusTimeout, StatusDeath, StatusCanceled}
	for i, s := range statuses {
		ctx := c.StartTrace("sighost", "call", uint32(i+1))
		c.FinishTrace(ctx, s)
	}
	if len(dumped) != 3 {
		t.Fatalf("auto-dumped %d traces, want REJECT+TIMEOUT+DEATH = 3", len(dumped))
	}
	for _, tree := range dumped {
		if !strings.Contains(tree, "status=") {
			t.Fatalf("dump is not a rendered tree: %q", tree)
		}
	}
	st := c.StatsNow()
	if st.Evicted != 3 || st.Dumps != 3 {
		t.Fatalf("stats %+v, want 3 evicted and 3 dumps", st)
	}
	if got := c.Completed(); len(got) != 2 || got[1].Status != StatusCanceled {
		t.Fatalf("flight ring should hold the last 2: %+v", got)
	}
	// The evicted early call is gone; the retained late one is findable.
	if _, ok := c.ByCall("", 1); ok {
		t.Fatal("evicted trace still findable")
	}
	if tr, ok := c.ByCall("", 5); !ok || tr.Status != StatusCanceled {
		t.Fatal("retained trace not findable by call ID")
	}
}

func TestByCallPrefersActive(t *testing.T) {
	c, _ := newTestCollector()
	old := c.StartTrace("sighost", "first", 9)
	c.FinishTrace(old, StatusOK)
	fresh := c.StartTrace("sighost", "second", 9)
	got, ok := c.ByCall("", 9)
	if !ok || got.ID != fresh.Trace || got.Name != "second" {
		t.Fatalf("ByCall should prefer the active trace: %+v", got)
	}
}

func TestChromeJSONSchema(t *testing.T) {
	c, clk := newTestCollector()
	root := c.StartTrace("sighost", "echo", 3)
	clk.t = time.Millisecond
	child := c.StartSpan(root, "pfxunet", "frame")
	clk.t = 2 * time.Millisecond
	c.EndSpan(child)
	c.FinishTrace(root, StatusOK)

	out, err := ChromeJSON(c.Completed())
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  uint64            `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", f.DisplayTimeUnit)
	}
	var spans, metas int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 spans over 2 distinct comps: 2 X events, 2 thread_name + 1
	// process_name metadata events.
	if spans != 2 || metas != 3 {
		t.Fatalf("got %d span and %d metadata events", spans, metas)
	}
}

func TestTextTreeRendering(t *testing.T) {
	c, clk := newTestCollector()
	root := c.StartTrace("sighost", "echo", 11)
	child := c.StartSpan(root, "sighost", "call.setup")
	c.StartSpan(child, "pfxunet", "frame") // never ended: flagged open
	clk.t = time.Second
	c.EndSpan(child)
	c.FinishTrace(root, StatusOK)
	tr, _ := c.ByCall("", 11)
	tree := TextTree(tr)
	for _, want := range []string{
		`trace 1 call 11 "echo" status=OK spans=3`,
		"sighost/echo",
		"  sighost/call.setup",
		"    pfxunet/frame",
		"(never ended)",
	} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestAttributeExactPartition(t *testing.T) {
	c, clk := newTestCollector()
	root := c.StartTrace("sighost", "echo", 4)
	setup := c.StartSpanAt(root, "sighost", setupSpanName, 0)
	// Three back-to-back children partition the setup span exactly.
	c.Record(setup, "sighost", "process", 0, 10*time.Millisecond)
	peer := c.StartSpanAt(setup, "sighost", "peer", 10*time.Millisecond)
	c.EndSpanAt(peer, 70*time.Millisecond)
	c.Record(setup, "sighost", "program", 70*time.Millisecond, 100*time.Millisecond)
	c.EndSpanAt(setup, 100*time.Millisecond)
	clk.t = 150 * time.Millisecond
	c.FinishTrace(root, StatusOK)

	tr, _ := c.ByCall("", 4)
	att, ok := Attribute(tr)
	if !ok {
		t.Fatal("no call.setup span found")
	}
	if att.Total != 100*time.Millisecond {
		t.Fatalf("total %v", att.Total)
	}
	var sum time.Duration
	for _, p := range att.Parts {
		sum += p.Dur
	}
	if sum != att.Total || att.Unattributed != 0 {
		t.Fatalf("parts sum %v of total %v (unattributed %v)", sum, att.Total, att.Unattributed)
	}
	if s := att.String(); !strings.Contains(s, "sighost/process") || !strings.Contains(s, "60.0%") {
		t.Fatalf("report missing parts or percentages:\n%s", s)
	}
}
