package main

import (
	"fmt"
	"runtime"
	"time"
)

// A workload is one system under test plus the closed-loop load
// generator that drives it in fixed-size segments. Everything it runs
// is generated from runConfig; the program under test sees only those
// inputs.
type workload interface {
	// build assembles the system, exports services and opens standing
	// circuits. The harness times build plus one warm-up segment as
	// setup_s.
	build(cfg runConfig) error
	// mark starts the timed run: counters read by report are deltas
	// from here.
	mark()
	// segment runs one fixed batch of operations to completion and
	// reports how many it attempted and how many failed.
	segment() (ops, failed int, err error)
	// finish stops the load, drains the system and audits it for leaked
	// state; each leak counts as one failed operation.
	finish() (leaks []string)
	// report adds the workload's own numbers for the timed run, whose
	// operation count is r.Ops, to r.
	report(r *result)
	// close releases every goroutine and socket build created; a second
	// call does nothing.
	close()
}

// A refresher is a workload that must renew its system between
// segments; the harness calls refresh before every timed segment,
// outside the timed interval.
type refresher interface {
	refresh() error
}

// runConfig is what one run of one workload is generated from.
type runConfig struct {
	seed uint64
	// scale multiplies every segment's operation count; 1 is the
	// reference size, the smoke test runs at 1/20 or below.
	scale float64
	// traced arms sim tracing, the profiler and the span recorder.
	traced bool
	spans  *recorder
}

// scaled returns n scaled by cfg.scale, at least 1.
func (c runConfig) scaled(n int) int {
	v := int(float64(n)*c.scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// result is one run's output: the contract's four fields plus the
// detail the suite report and the self-check use.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Segments  int                `json:"segments"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"ops_failed"`
	Correct   bool               `json:"correct"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer"`
	Quartiles map[string]summary `json:"quartiles,omitempty"`
	// SpanMS is, per span name of a traced run, total and self time.
	SpanMS map[string][2]float64 `json:"span_ms,omitempty"`
	Notes  []string              `json:"notes,omitempty"`
}

func newResult(name string, cfg runConfig) *result {
	return &result{
		Workload: name, Seed: cfg.seed, Traced: cfg.traced,
		EndToEnd: map[string]float64{}, Layers: map[string]float64{}, Quartiles: map[string]summary{},
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times a run builds and warms the system; the
// median is reported as setup_s so one slow page-fault storm does not
// decide it.
const setupRepeats = 5

// A timed run is at most maxSegments segments of fixed work; segment
// sizes are chosen so that maxSegments of them take about 7 s on the
// reference box.
const maxSegments = 20

// minSegments is the fewest segments a time-budgeted run measures, so a
// median always has something under it.
const minSegments = 5

// tracedSegments is how many segments the traced run measures; the
// rest of its time goes to the isolated layer probes.
const tracedSegments = 5

// stopRule says when the timed loop ends: after a fixed number of
// segments (the suite and the self-check, so deterministic counts
// repeat exactly), or earlier once a wall-clock budget is spent (the
// contract's --seconds).
type stopRule struct {
	segments int
	seconds  float64
}

// add accumulates another segment's cost.
func (c *segmentCost) add(d segmentCost) {
	c.wall += d.wall
	c.cpu += d.cpu
	c.gcCPU += d.gcCPU
	c.mallocs += d.mallocs
	c.gcs += d.gcs
}

func (s stopRule) done(n int, elapsed time.Duration) bool {
	if n >= s.segments {
		return true
	}
	return s.seconds > 0 && n >= minSegments && elapsed.Seconds() >= s.seconds
}

// segmentCost is what one segment added to the process's counters.
type segmentCost struct {
	wall    time.Duration
	cpu     time.Duration
	gcCPU   float64
	mallocs uint64
	gcs     uint32
}

// timedSegment runs one segment between two readings of the process
// counters, so that nothing the harness does between segments is
// charged to the workload.
func timedSegment(w workload, sp *recorder) (ops, failed int, c segmentCost, err error) {
	before := markRuntime()
	if sp != nil {
		sp.segment = sp.begin("segment", 0)
	}
	ops, failed, err = w.segment()
	if sp != nil {
		sp.end(sp.segment)
		sp.segment = 0
	}
	after := markRuntime()
	return ops, failed, segmentCost{
		wall: after.wall.Sub(before.wall), cpu: after.cpu - before.cpu, gcCPU: after.gcCPU - before.gcCPU,
		mallocs: after.mallocs - before.mallocs, gcs: after.gcCycles - before.gcCycles,
	}, err
}

// start builds a workload and runs its warm-up segment.
func start(mk func() workload, cfg runConfig) (workload, error) {
	w := mk()
	if err := w.build(cfg); err != nil {
		w.close()
		return nil, fmt.Errorf("build: %w", err)
	}
	if _, failed, err := w.segment(); err != nil || failed != 0 {
		w.close()
		return nil, fmt.Errorf("warm-up segment: %d failed, err=%v", failed, err)
	}
	return w, nil
}

// run executes one workload: repeated set-up, the timed segment loop,
// the end-of-run audit, and the metrics every workload shares.
func run(def workloadDef, cfg runConfig, stop stopRule) (*result, error) {
	r := newResult(def.name, cfg)
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = start(def.mk, cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { w.close() }()
	r.EndToEnd["setup_s"] = median(setups)

	cfg.spans.reset()
	w.mark()
	var rates []float64
	var total segmentCost
	for start := time.Now(); !stop.done(r.Segments, time.Since(start)); {
		if rf, ok := w.(refresher); ok {
			if err := rf.refresh(); err != nil {
				return nil, fmt.Errorf("%s: refresh before segment %d: %w", def.name, r.Segments, err)
			}
		}
		var heap0 uint64
		if r.Segments == 0 {
			heap0 = heapAfterGC()
		}
		ops, failed, c, err := timedSegment(w, cfg.spans)
		if err != nil {
			return nil, fmt.Errorf("%s: segment %d: %w", def.name, r.Segments, err)
		}
		if r.Segments == 0 && ops > 0 {
			// Live heap across the first segment, after forced
			// collections on both sides: a leak detector.
			r.Layers["go.heap_growth_b_per_op"] = (float64(heapAfterGC()) - float64(heap0)) / float64(ops)
		}
		r.Ops += ops
		r.Failed += failed
		r.Segments++
		rates = append(rates, float64(ops)/c.wall.Seconds())
		total.add(c)
	}

	ops := float64(r.Ops)
	sum := summarize(rates)
	r.Quartiles["ops_per_s"] = sum
	r.EndToEnd["ops_per_s"] = sum.Median
	r.EndToEnd["cpu_us_per_op"] = float64(total.cpu.Nanoseconds()) / 1e3 / ops
	r.Layers["go.allocs_per_op"] = float64(total.mallocs) / ops
	if total.cpu > 0 {
		r.Layers["go.gc_cpu_pct"] = 100 * total.gcCPU / total.cpu.Seconds()
	}
	r.Layers["go.gc_cycles"] = float64(total.gcs)
	w.report(r)

	leaks := w.finish()
	for _, l := range leaks {
		r.note("leak: %s", l)
	}
	r.Failed += len(leaks)
	w.close()
	r.Layers["go.goroutines_end"] = float64(runtime.NumGoroutine())
	// Every attempted operation succeeded unless it failed or, on the
	// storms, ended in a typed error instead of establishment.
	ok := 1.0
	if v, storm := r.Layers["virt.established_ratio"]; storm {
		ok = v
	}
	r.EndToEnd["ok_ratio"] = ok - float64(r.Failed)/ops
	r.EndToEnd["peak_rss_mb"] = peakRSSMiB()
	r.Correct = r.Failed == 0

	if cfg.traced {
		if err := traceExtras(def, cfg, r, sum.Median); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		total, self := cfg.spans.selfTimes()
		r.SpanMS = map[string][2]float64{}
		for name, d := range total {
			r.SpanMS[name] = [2]float64{ms(d), ms(self[name])}
		}
	}
	return r, nil
}
