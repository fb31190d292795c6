// Package tseries is the continuous-telemetry layer over the obs
// registry: a time-series store that scrapes counters (as per-tick
// deltas), gauges (level plus high-water) and histograms (count delta
// plus P99) into fixed-capacity point rings, one tick at a time. Ticks
// are driven externally — sim-time events in the testbed, a wall-clock
// ticker in the real-mode daemon — so the store itself never touches a
// clock and same-seed runs export byte-identical series.
//
// Declarative watermark rules (queue depth over N, retransmit-rate
// spikes, flight-dump bursts) evaluate after every scrape and emit
// health events on state edges; consumers wire OnHealthEvent to collect
// them or trigger the flight recorder.
//
// A store has one owner, the goroutine that ticks it: a sim domain's
// engine, or a real daemon's actor, onto which the daemon's wall-clock
// ticker posts each scrape. Registration, ticks and reads all run there,
// so the store takes no lock.
//
// The steady state allocates nothing: point rings (sim.Ring) start on
// capacity-sized arrays, sources are resolved once, and registry
// rescans run only when a registry has grown. Hot paths feed the store
// through Peak, whose disabled (nil) form costs one pointer check —
// gated under 5 ns by BenchmarkTSeriesOverhead, like the trace and
// faults planes.
package tseries

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"xunet/internal/obs"
	"xunet/internal/sim"
)

// Config sizes a store.
type Config struct {
	// Interval is the nominal tick period. The store does not schedule
	// ticks itself; the value scales rate-style series (utilization) and
	// is recorded in exports.
	Interval time.Duration
	// Capacity is how many points each series retains (ring; oldest
	// overwritten).
	Capacity int
}

// defaultInterval and defaultCapacity apply when Config leaves them zero;
// eventCapacity bounds the health-event ring.
const (
	defaultInterval = 10 * time.Millisecond
	defaultCapacity = 512
	eventCapacity   = 256
)

// kind classifies how a series samples its source.
type kind uint8

const (
	// kindCounter samples a monotonic total: V is the delta since the
	// previous tick (scaled by num/den when set), Aux the raw total.
	kindCounter kind = iota
	// kindGauge samples a level: V is the instantaneous value, Aux the
	// high-water mark.
	kindGauge
	// kindHist samples a histogram: V is the observation-count delta,
	// Aux the current P99 in nanoseconds.
	kindHist
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHist:
		return "hist"
	}
	return "?"
}

// Point is one scraped sample.
type Point struct {
	At  time.Duration `json:"at_ns"`
	V   int64         `json:"v"`
	Aux int64         `json:"aux"`
}

// series is one tracked source with its fixed-capacity point ring.
type series struct {
	name string
	kind kind

	counterFn func() uint64         // kindCounter
	gaugeFn   func() (int64, int64) // kindGauge: (value, high-water)
	hist      *obs.Histogram        // kindHist
	last      uint64                // previous counter/hist-count sample
	num, den  int64                 // counter delta scaling (0 den = none)

	points sim.Ring[Point] // on a capacity-sized array: a tick never grows it
}

func (s *series) sample(at time.Duration, capacity int) {
	var p Point
	p.At = at
	switch s.kind {
	case kindCounter:
		cur := s.counterFn()
		var d int64
		// A registry Func is adopted as a counter whatever it reads, and
		// some read levels that fall (fabric.vcs.active): clamp a
		// decrease to zero instead of wrapping.
		if cur >= s.last {
			d = int64(cur - s.last)
		}
		s.last = cur
		if s.den > 0 {
			d = d * s.num / s.den
		}
		p.V, p.Aux = d, int64(cur)
	case kindGauge:
		p.V, p.Aux = s.gaugeFn()
	case kindHist:
		cur := s.hist.Count()
		var d int64
		if cur >= s.last {
			d = int64(cur - s.last)
		}
		s.last = cur
		p.V, p.Aux = d, int64(s.hist.Quantile(0.99))
	}
	s.points.Keep(p, capacity)
}

// regSource is one registry under periodic rescan: when the registry
// has grown since the last scan (lazy metric registration), the new
// metrics are adopted as series.
type regSource struct {
	prefix   string
	reg      *obs.Registry
	lastSize int
}

// Rule is a declarative watermark: fire on the first tick a series'
// sampled value reaches the threshold; clear on the first tick back
// below it. Series may contain one '*' wildcard, matching every series
// whose name fits the prefix/suffix around it — each match tracks its
// own independent fire/clear state.
type Rule struct {
	Name   string `json:"name"`
	Series string `json:"series"`
	// Threshold compares against the point's V (or Aux when OnAux):
	// fire condition is value >= Threshold.
	Threshold int64 `json:"threshold"`
	// OnAux watches the auxiliary component (gauge high-water, counter
	// raw total, histogram P99) instead of V.
	OnAux bool `json:"on_aux,omitempty"`
}

// ruleState is one rule's state over one series; streak counts the
// consecutive out-of-band ticks, which the export reports.
type ruleState struct {
	streak int
	firing bool
}

type rule struct {
	def    Rule
	states map[int]*ruleState // series index -> state
}

func (r *rule) matches(name string) bool {
	p := r.def.Series
	i := strings.IndexByte(p, '*')
	if i < 0 {
		return name == p
	}
	return len(name) >= len(p)-1 && strings.HasPrefix(name, p[:i]) && strings.HasSuffix(name, p[i+1:])
}

// HealthEvent is one watermark edge: a rule starting to fire over a
// series, or clearing.
type HealthEvent struct {
	At     time.Duration `json:"at_ns"`
	Tick   uint64        `json:"tick"`
	Rule   string        `json:"rule"`
	Series string        `json:"series"`
	Value  int64         `json:"value"`
	State  string        `json:"state"` // "fire" | "clear"
}

// String renders one event line.
func (ev HealthEvent) String() string {
	return fmt.Sprintf("[%v] %s %s %s value=%d", ev.At, ev.State, ev.Rule, ev.Series, ev.Value)
}

// Store holds every tracked series, the watermark rules, and the health
// event ring. Its methods run on its owner (see the package doc) and are
// nil-safe, so a disabled deployment passes a nil *Store around freely.
type Store struct {
	interval time.Duration
	capacity int

	series []*series
	byName map[string]bool
	regs   []regSource

	rules   []*rule
	events  sim.Ring[HealthEvent]
	onEvent func(HealthEvent)

	ticks  uint64
	lastAt time.Duration
}

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	return &Store{
		interval: cfg.Interval,
		capacity: cfg.Capacity,
		byName:   make(map[string]bool),
	}
}

// Interval reports the nominal tick period.
func (st *Store) Interval() time.Duration {
	if st == nil {
		return 0
	}
	return st.interval
}

// add registers s unless the name is already tracked (first wins).
func (st *Store) add(s *series) {
	if st.byName[s.name] {
		return
	}
	s.points = sim.RingOn(make([]Point, st.capacity))
	// Prime the counter baseline so the first tick reports a true
	// delta rather than the accumulated history.
	switch s.kind {
	case kindCounter:
		s.last = s.counterFn()
	case kindHist:
		s.last = s.hist.Count()
	}
	st.byName[s.name] = true
	st.series = append(st.series, s)
}

// TrackRateFunc tracks a monotonic total read through fn. When den > 0
// each delta is scaled by num/den — utilization series scale cell
// deltas by serialization-time/interval this way.
func (st *Store) TrackRateFunc(name string, fn func() uint64, num, den int64) {
	if st == nil {
		return
	}
	st.add(&series{name: name, kind: kindCounter, counterFn: fn, num: num, den: den})
}

// TrackGaugeFunc tracks a level read through fn, which returns
// (value, high-water). fn runs at tick time, on the store's owner.
func (st *Store) TrackGaugeFunc(name string, fn func() (int64, int64)) {
	if st == nil {
		return
	}
	st.add(&series{name: name, kind: kindGauge, gaugeFn: fn})
}

// TrackRegistry adopts every metric in reg, each series named
// prefix+metric. The registry is rescanned on ticks where it has grown,
// so lazily registered metrics (journal counters, per-peer backlogs)
// join the store when they appear.
func (st *Store) TrackRegistry(prefix string, reg *obs.Registry) {
	if st == nil {
		return
	}
	rs := regSource{prefix: prefix, reg: reg}
	st.scanRegistry(&rs)
	st.regs = append(st.regs, rs)
}

// scanRegistry adopts reg's current metrics (idempotent per name).
func (st *Store) scanRegistry(rs *regSource) {
	rs.lastSize = rs.reg.MetricCount()
	rs.reg.Visit(
		func(name string, c *obs.Counter) {
			st.add(&series{name: rs.prefix + name, kind: kindCounter, counterFn: c.Value})
		},
		func(name string, g *obs.Gauge) {
			st.add(&series{name: rs.prefix + name, kind: kindGauge, gaugeFn: func() (int64, int64) { return g.Value(), g.Max() }})
		},
		func(name string, h *obs.Histogram) {
			st.add(&series{name: rs.prefix + name, kind: kindHist, hist: h})
		},
		func(name string, fn func() uint64) {
			st.add(&series{name: rs.prefix + name, kind: kindCounter, counterFn: fn})
		},
	)
}

// AddRule installs a watermark rule.
func (st *Store) AddRule(r Rule) {
	if st == nil {
		return
	}
	st.rules = append(st.rules, &rule{def: r, states: make(map[int]*ruleState)})
}

// OnHealthEvent installs the edge callback, invoked at tick time — keep
// it light (publish to a ring, trigger a flight dump).
func (st *Store) OnHealthEvent(fn func(HealthEvent)) {
	if st == nil {
		return
	}
	st.onEvent = fn
}

// Tick scrapes every series at the given timestamp and evaluates the
// watermark rules. Call it from whatever owns time: a sim event or a
// wall-clock ticker. Safe (a no-op) on nil.
func (st *Store) Tick(now time.Duration) {
	if st == nil {
		return
	}
	st.ticks++
	st.lastAt = now
	for i := range st.regs {
		rs := &st.regs[i]
		if rs.reg.MetricCount() != rs.lastSize {
			st.scanRegistry(rs)
		}
	}
	for _, s := range st.series {
		s.sample(now, st.capacity)
	}
	st.evalRules(now)
}

func (st *Store) evalRules(now time.Duration) {
	for _, r := range st.rules {
		for i, s := range st.series {
			if !r.matches(s.name) {
				continue
			}
			state := r.states[i]
			if state == nil {
				state = &ruleState{}
				r.states[i] = state
			}
			p := s.points.At(s.points.Len() - 1) // sampled this tick
			v := p.V
			if r.def.OnAux {
				v = p.Aux
			}
			out := v >= r.def.Threshold
			state.streak++
			if !out {
				state.streak = 0
			}
			if out == state.firing {
				continue
			}
			state.firing = out
			edge := "clear"
			if out {
				edge = "fire"
			}
			st.emit(HealthEvent{At: now, Tick: st.ticks, Rule: r.def.Name, Series: s.name, Value: v, State: edge})
		}
	}
}

// emit keeps ev in the bounded event ring and invokes the callback.
func (st *Store) emit(ev HealthEvent) {
	st.events.Keep(ev, eventCapacity)
	if st.onEvent != nil {
		st.onEvent(ev)
	}
}

// SeriesSnap is one exported series, points oldest first.
type SeriesSnap struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points,omitempty"`
}

// RuleSnap is one watermark rule's state over one matched series.
type RuleSnap struct {
	Rule   string `json:"rule"`
	Series string `json:"series"`
	Firing bool   `json:"firing"`
	Streak int    `json:"streak"`
}

// Export is the store's full, deterministic dump: series sorted by
// name, rule states sorted by (rule, series), events oldest first.
type Export struct {
	Interval time.Duration `json:"interval_ns"`
	Ticks    uint64        `json:"ticks"`
	Series   []SeriesSnap  `json:"series,omitempty"`
	Rules    []RuleSnap    `json:"rules,omitempty"`
	Events   []HealthEvent `json:"events,omitempty"`
}

// Export snapshots everything.
func (st *Store) Export() Export {
	if st == nil {
		return Export{}
	}
	out := Export{Interval: st.interval, Ticks: st.ticks}
	for _, s := range st.series {
		out.Series = append(out.Series, SeriesSnap{Name: s.name, Kind: s.kind.String(), Points: s.points.Last(s.points.Len())})
	}
	sort.Slice(out.Series, func(i, j int) bool { return out.Series[i].Name < out.Series[j].Name })
	out.Rules = st.ruleSnaps()
	out.Events = st.events.Last(eventCapacity)
	return out
}

func (st *Store) ruleSnaps() []RuleSnap {
	var out []RuleSnap
	for _, r := range st.rules {
		for i, state := range r.states {
			out = append(out, RuleSnap{Rule: r.def.Name, Series: st.series[i].name, Firing: state.firing, Streak: state.streak})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Series < out[j].Series
	})
	return out
}

// JSON renders the full export as compact JSON (byte-identical across
// same-seed runs).
func (st *Store) JSON() string {
	b, err := json.Marshal(st.Export())
	if err != nil {
		return "{}" // unreachable: Export is plain data
	}
	return string(b)
}

// Text renders one line per series — the latest sample plus how many
// points are retained — sorted by name.
func (st *Store) Text() string {
	if st == nil {
		return "time-series collection disabled\n"
	}
	sorted := append([]*series(nil), st.series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "tseries: %d series, %d ticks, last at %v\n", len(sorted), st.ticks, st.lastAt)
	for _, s := range sorted {
		var p Point
		n := s.points.Len()
		if n > 0 {
			p = s.points.At(n - 1)
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s rate=%d total=%d points=%d\n", s.name, p.V, p.Aux, n)
		case kindGauge:
			fmt.Fprintf(&b, "%s value=%d hi=%d points=%d\n", s.name, p.V, p.Aux, n)
		case kindHist:
			fmt.Fprintf(&b, "%s rate=%d p99=%v points=%d\n", s.name, p.V, time.Duration(p.Aux), n)
		}
	}
	return b.String()
}

// HealthText renders the rule states and recent events.
func (st *Store) HealthText() string {
	if st == nil {
		return "time-series collection disabled\n"
	}
	var b strings.Builder
	for _, s := range st.ruleSnaps() {
		state := "ok"
		if s.Firing {
			state = "FIRING"
		}
		fmt.Fprintf(&b, "%s %s %s streak=%d\n", s.Rule, s.Series, state, s.Streak)
	}
	if st.events.Len() > 0 {
		b.WriteString("EVENTS (oldest first)\n")
		for _, ev := range st.events.Last(eventCapacity) {
			b.WriteString("  " + ev.String() + "\n")
		}
	}
	if b.Len() == 0 {
		return "no watermark rules installed\n"
	}
	return b.String()
}

// HealthJSON renders rule states plus events as one JSON object.
func (st *Store) HealthJSON() string {
	if st == nil {
		return "{}"
	}
	out := struct {
		Rules  []RuleSnap    `json:"rules,omitempty"`
		Events []HealthEvent `json:"events,omitempty"`
	}{st.ruleSnaps(), st.events.Last(eventCapacity)}
	b, err := json.Marshal(out)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Peak is a hot-path high-water accumulator: instrumented call sites
// note a level (queue depth after an enqueue) and the tick scrape takes
// and resets the maximum, so saturation between ticks survives into the
// series. A nil Peak — the disabled deployment — costs one pointer
// check per call site (gated under 5 ns by BenchmarkTSeriesOverhead).
// Not atomic: the writers and the scraper must share a thread (the sim
// engine), exactly like the plain counters on trunks and links.
type Peak struct{ v int64 }

// Note raises the pending high-water mark. Safe on nil.
func (p *Peak) Note(v int64) {
	if p != nil && v > p.v {
		p.v = v
	}
}

// Take returns the high-water mark since the previous Take and resets it.
func (p *Peak) Take() int64 {
	if p == nil {
		return 0
	}
	v := p.v
	p.v = 0
	return v
}
