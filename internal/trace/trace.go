// Package trace is the causal tracing layer: Dapper-style span trees
// that follow one signaling call through every layer of the stack —
// ulib IPC, the sighost state machine, the /dev/anand indication path,
// PF_XUNET frame transmission, per-hop cell transit in the fabric, and
// AAL5-over-IP encapsulation. Spans are stamped with *sim time*, so a
// trace is a deterministic artifact: two same-seed runs export
// byte-identical trace JSON.
//
// The package rides on the same cost discipline as internal/obs: a
// disabled collector is a nil check plus one bool load (under the 5 ns
// telemetry budget, gated by BenchmarkTraceOverhead), and when the
// collector is enabled but a call was not head-sampled, every operation
// is a single branch on Context.Sampled() with zero allocations (gated
// by TestUnsampledPathAllocs).
//
// A collector has one owner and no lock: every call runs on the real
// daemon's actor (signaling.RealHost; other goroutines go through its
// Do), or on the engine or shard of its sim domain. Trace and span IDs
// come from per-collector counters, so in the simulator, where every
// mutation happens inside the event loop, IDs — and therefore exported
// JSON — are identical across same-seed runs.
package trace

import (
	"time"

	"xunet/internal/sim"
)

// Context identifies a position in a trace: the trace it belongs to and
// the span that is the current parent. The zero Context means
// "unsampled"; every operation on it is a no-op, which is what makes
// propagating contexts through hot paths free for unsampled calls.
type Context struct {
	Trace uint64
	Span  uint64
}

// Sampled reports whether this context belongs to a sampled trace.
func (c Context) Sampled() bool { return c.Trace != 0 }

// Span is one timed operation inside a trace. Start/End are sim-time
// offsets from the engine epoch. Open marks spans that were never
// explicitly ended and got force-closed when the trace finished — a
// debugging signal, not a normal state.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Comp   string        `json:"comp"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Open   bool          `json:"open,omitempty"`
}

// dur returns the span's duration.
func (s Span) dur() time.Duration { return s.End - s.Start }

// Trace is one call's complete span tree. Spans appear in creation
// order; the root span has Parent == 0.
type Trace struct {
	ID     uint64 `json:"id"`
	CallID uint32 `json:"call_id"`
	Name   string `json:"name"`
	Status string `json:"status"`
	Spans  []Span `json:"spans"`

	origin string // the router that placed the call (StartCallTrace)
}

// Terminal trace statuses. FinishTrace accepts any string, but the
// flight recorder auto-dumps only the failure family below.
const (
	StatusOK       = "OK"
	StatusReject   = "REJECT"
	StatusTimeout  = "TIMEOUT"
	StatusDeath    = "DEATH"
	StatusCanceled = "CANCELED"
	StatusFailed   = "FAILED"
)

// dumpWorthy reports whether a terminal status triggers an automatic
// flight-recorder dump: calls that ended in rejection, bind timeout, or
// teardown-on-death (the E4 storm's failure modes).
func dumpWorthy(status string) bool {
	return status == StatusReject || status == StatusTimeout || status == StatusDeath
}

// Collector owns trace state: in-flight traces keyed by trace ID, a
// bounded ring of completed traces (the flight recorder), and the
// head-sampling decision. One collector is shared by every machine in a
// testbed so a call's spans land in one tree regardless of which stack
// recorded them.
type Collector struct {
	on  bool // set before the owner runs
	now func() time.Duration

	started  uint64            // traces started (sampled or not); also the trace ID source
	spanSeq  uint64            // span ID source
	sampleN  uint64            // keep 1 trace in every sampleN (1 = keep all)
	spanCap  int               // max spans retained per trace
	active   sim.Index[*Trace] // by ID, which ascends
	flight   sim.Ring[*Trace]  // completed traces, oldest first
	capacity int               // flight ring bound

	sampled      uint64 // traces that passed head sampling
	completed    uint64
	droppedSpans uint64 // spans discarded by the per-trace cap
	evicted      uint64 // completed traces pushed out of the flight ring
	dumps        uint64 // auto-dumps triggered by dumpWorthy statuses

	onDump func(t *Trace, tree string)
}

// defaultFlightTraces bounds the flight recorder: completed traces kept
// for post-hoc inspection before the oldest is evicted.
const defaultFlightTraces = 64

// defaultSpanCap bounds one trace's span count; a call that somehow
// accumulates more (a data-heavy connection tracing every frame) drops
// the excess and counts it in trace.spans.dropped.
const defaultSpanCap = 512

// NewCollector returns a disabled collector reading time from now
// (sim-time in the testbed, wall-clock in the real-mode daemon).
func NewCollector(now func() time.Duration) *Collector {
	return &Collector{
		now:      now,
		sampleN:  1,
		spanCap:  defaultSpanCap,
		capacity: defaultFlightTraces,
	}
}

// SetEnabled flips the master gate, before the owner runs. Disabled is
// the default and costs one nil check plus one bool load per call site.
func (c *Collector) SetEnabled(on bool) { c.on = on }

// enabled reports whether the collector records anything at all. Safe
// on a nil collector.
func (c *Collector) enabled() bool { return c != nil && c.on }

// SetSampleEvery sets head-based sampling: keep one trace in every n.
// Values <= 1 keep every trace. Unsampled calls still count in
// trace.started but allocate nothing anywhere in the stack.
func (c *Collector) SetSampleEvery(n uint64) {
	if n < 1 {
		n = 1
	}
	c.sampleN = n
}

// OnDump installs the auto-dump hook: fn receives every dumpWorthy
// trace at finish time along with its rendered text tree.
func (c *Collector) OnDump(fn func(t *Trace, tree string)) {
	c.onDump = fn
}

// DumpRecent pushes the newest n completed traces through the OnDump
// hook (regardless of status), tagging each with reason. Health
// watermark rules use it to snapshot what the flight recorder was
// holding when a rule fired. Returns how many traces were dumped.
func (c *Collector) DumpRecent(n int, reason string) int {
	if c == nil || n <= 0 {
		return 0
	}
	if c.onDump == nil {
		return 0
	}
	picked := c.flight.Last(n)
	c.dumps += uint64(len(picked))
	for _, t := range picked {
		c.onDump(t, "DUMP reason="+reason+"\n"+TextTree(t))
	}
	return len(picked)
}

// StartTrace begins a new trace for a call, applying the head-sampling
// decision. The returned context is the root span; a zero context means
// the call was not sampled (or the collector is disabled) and every
// descendant operation will no-op.
func (c *Collector) StartTrace(comp, name string, callID uint32) Context {
	if !c.enabled() {
		return Context{}
	}
	return c.StartCallTrace("", comp, name, callID, c.now())
}

// StartCallTrace is StartTrace for a call that origin, a router's
// address, placed, starting at: ByCall finds the trace under that origin
// only.
func (c *Collector) StartCallTrace(origin, comp, name string, callID uint32, at time.Duration) Context {
	if !c.enabled() {
		return Context{}
	}
	c.started++
	if c.sampleN > 1 && (c.started-1)%c.sampleN != 0 {
		return Context{}
	}
	c.sampled++
	c.spanSeq++
	t := &Trace{
		ID:     c.started,
		CallID: callID,
		Name:   name,
		origin: origin,
		Spans: []Span{{
			ID:    c.spanSeq,
			Comp:  comp,
			Name:  name,
			Start: at,
			End:   -1,
		}},
	}
	c.active.Put(t.ID, t)
	return Context{Trace: t.ID, Span: c.spanSeq}
}

// StartSpanAt opens a child span under parent starting at. Returns the
// child context, or zero if the parent is unsampled or the trace has
// hit its span cap.
func (c *Collector) StartSpanAt(parent Context, comp, name string, at time.Duration) Context {
	if !parent.Sampled() || c == nil {
		return Context{}
	}
	t, _ := c.active.Get(parent.Trace)
	if t == nil {
		return Context{}
	}
	if len(t.Spans) >= c.spanCap {
		c.droppedSpans++
		return Context{}
	}
	c.spanSeq++
	t.Spans = append(t.Spans, Span{
		ID:     c.spanSeq,
		Parent: parent.Span,
		Comp:   comp,
		Name:   name,
		Start:  at,
		End:    -1,
	})
	return Context{Trace: parent.Trace, Span: c.spanSeq}
}

// EndSpan closes the span identified by ctx at the current time.
func (c *Collector) EndSpan(ctx Context) {
	if !ctx.Sampled() || c == nil {
		return
	}
	c.EndSpanAt(ctx, c.now())
}

// EndSpanAt closes the span identified by ctx at an explicit time.
func (c *Collector) EndSpanAt(ctx Context, at time.Duration) {
	if !ctx.Sampled() || c == nil {
		return
	}
	t, _ := c.active.Get(ctx.Trace)
	if t == nil {
		return
	}
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if t.Spans[i].ID == ctx.Span {
			t.Spans[i].End = at
			return
		}
	}
}

// Record appends an already-completed span under parent: the
// retroactive form used by hot paths that know an operation's start and
// end but must not allocate span state while it is in flight (cell
// transit, frame delivery, kernel indications).
func (c *Collector) Record(parent Context, comp, name string, start, end time.Duration) {
	if !parent.Sampled() || c == nil {
		return
	}
	t, _ := c.active.Get(parent.Trace)
	if t == nil {
		return
	}
	if len(t.Spans) >= c.spanCap {
		c.droppedSpans++
		return
	}
	c.spanSeq++
	t.Spans = append(t.Spans, Span{
		ID:     c.spanSeq,
		Parent: parent.Span,
		Comp:   comp,
		Name:   name,
		Start:  start,
		End:    end,
	})
}

// FinishTrace completes the trace owning root at the current time.
func (c *Collector) FinishTrace(root Context, status string) {
	if !root.Sampled() || c == nil {
		return
	}
	c.FinishTraceAt(root, status, c.now())
}

// FinishTraceAt completes the trace owning root at now: force-closes any
// still open spans (marking them Open), stamps the terminal status,
// moves the trace into the flight recorder, and — for dumpWorthy
// statuses — fires the auto-dump hook with the rendered span tree.
func (c *Collector) FinishTraceAt(root Context, status string, now time.Duration) {
	if !root.Sampled() || c == nil {
		return
	}
	t, _ := c.active.Get(root.Trace)
	if t == nil {
		return
	}
	c.active.Delete(root.Trace)
	for i := range t.Spans {
		if t.Spans[i].End < 0 {
			t.Spans[i].End = now
			if t.Spans[i].ID != root.Span {
				t.Spans[i].Open = true
			}
		}
	}
	t.Status = status
	c.completed++
	if c.flight.Keep(t, c.capacity) {
		c.evicted++
	}
	if c.onDump != nil && dumpWorthy(status) {
		c.dumps++
		c.onDump(t, TextTree(t))
	}
}

// ByCall returns the trace of the call origin placed under callID: the
// newest active trace if the call is still in flight, else the newest
// completed one in the flight recorder. It is the collector's own
// trace, valid until the owner's next event; a finished trace is never
// changed. Call IDs are counters
// of the router that placed the call, so only the pair is unique. Both
// lookups are scans: MGMT calltrace, the one reader outside tests, is
// rarer than the traced calls an index would tax.
func (c *Collector) ByCall(origin string, callID uint32) (*Trace, bool) {
	if c == nil {
		return nil, false
	}
	var newest *Trace
	for _, t := range c.active.All() {
		if t.origin == origin && t.CallID == callID && (newest == nil || t.ID > newest.ID) {
			newest = t
		}
	}
	if newest != nil {
		return newest, true
	}
	for i := c.flight.Len() - 1; i >= 0; i-- {
		if t := c.flight.At(i); t.origin == origin && t.CallID == callID {
			return t, true
		}
	}
	return nil, false
}

// Completed returns the flight recorder's traces, oldest first. The
// traces are finished, so never changed; the slice is the caller's.
func (c *Collector) Completed() []*Trace {
	if c == nil {
		return nil
	}
	return c.flight.Last(c.flight.Len())
}

// Stats is a point-in-time copy of the collector's health counters,
// surfaced on every machine's MGMT stats so truncation is visible.
type Stats struct {
	Started      uint64
	Sampled      uint64
	Completed    uint64
	Active       uint64
	DroppedSpans uint64
	Evicted      uint64
	Dumps        uint64
}

// StatsNow samples the counters.
func (c *Collector) StatsNow() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Started:      c.started,
		Sampled:      c.sampled,
		Completed:    c.completed,
		Active:       uint64(c.active.Len()),
		DroppedSpans: c.droppedSpans,
		Evicted:      c.evicted,
		Dumps:        c.dumps,
	}
}
