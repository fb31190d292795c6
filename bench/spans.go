package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// public function of the program. Spans of one operation share Op.
// Spans are recorded only from this directory: the issue that defines
// the benchmark leaves spans inside internal/ to a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since recorder creation
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	spans []span
	op    int
	// segment is the open segment span; spans begun with parent 0
	// while it is open hang beneath it.
	segment int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reset drops everything recorded so far: set-up and warm-up are not
// part of the traced run.
func (r *recorder) reset() {
	if r != nil {
		r.spans, r.op, r.segment = r.spans[:0], 0, 0
	}
}

// nextOp starts a new operation: spans begun from here on share its
// identifier.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span under parent (0 for the open segment, or a root
// outside one) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	if parent == 0 {
		parent = r.segment
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name,
		Start: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
}

// add records a finished child span whose duration was measured
// elsewhere (a profiler bucket hung beneath an engine span).
func (r *recorder) add(name string, parent int, dur time.Duration) {
	if r == nil {
		return
	}
	start := r.spans[parent-1].Start
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: r.spans[parent-1].Op, Name: name,
		Start: start, End: start + dur.Nanoseconds(),
	})
}

// addAbs records a finished root-level span of the current operation
// from wall-clock instants taken on another goroutine.
func (r *recorder) addAbs(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Op: r.op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
}

// selfTimes returns, per span name, the total duration and the total
// self time: a span's duration minus what its children cover.
func (r *recorder) selfTimes() (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	if r == nil {
		return
	}
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range r.spans {
		d := s.End - s.Start
		total[s.Name] += time.Duration(d)
		self[s.Name] += time.Duration(d - child[s.ID])
	}
	return
}

// durations returns every recorded duration of the named span.
func (r *recorder) durations(name string) []time.Duration {
	var ds []time.Duration
	if r == nil {
		return ds
	}
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
