// Package obs is the repo's telemetry layer: a registry of named counters,
// gauges and sim-time histograms, plus the bounded structured event ring
// sighost keeps (ring.go, over sim.Ring). Components register metrics by
// dotted name ("component.metric", e.g. "sighost.calls.established")
// against the registry owned by their kern.Machine; the testbed report, the
// sigmsg mgmt queries ("stats" / "stats.json") and cmd/xunetstat all render
// from Snapshot().
//
// All metric mutation paths are atomic and safe from any goroutine; the
// registry map itself is mutex-guarded but only touched at registration and
// snapshot time, never on hot paths (call sites hold *Counter etc. directly).
package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, live procs) that also tracks
// its high-water mark, so transient saturation survives into the snapshot.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the level and raises the high-water mark if needed.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	g.raise(n)
}

// Add shifts the level by delta and raises the high-water mark if needed.
func (g *Gauge) Add(delta int64) {
	n := g.v.Add(delta)
	g.raise(n)
}

func (g *Gauge) raise(n int64) {
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the number of log-scale latency buckets. Bucket 0 holds
// observations <= 1µs; bucket i holds (1µs<<(i-1), 1µs<<i]; the last bucket
// is unbounded. 1µs<<38 is ~76h of sim time, far beyond any run.
const histBuckets = 40

// Histogram accumulates sim-time durations into fixed log-scale buckets.
// Quantiles are estimated by linear interpolation inside the matched bucket
// and clamped to the observed maximum.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Smallest i with 1µs<<i >= d. Subtracting one nanosecond keeps exact
	// bucket bounds (2µs, 4µs, ...) in their own bucket.
	i := bits.Len64(uint64(d-1) / 1000)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBound returns the inclusive upper bound of bucket i (the last bucket
// reports its nominal bound even though it is open-ended).
func bucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// Observe records one duration. Negative values clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile of the live histogram without building a
// snapshot, so periodic scrapers (obs/tseries) stay allocation-free.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return quantile(counts, h.count.Load(), time.Duration(h.max.Load()), q)
}

// Registry holds a machine's (or fabric's) named metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() uint64),
	}
}

// Counter returns the counter registered under name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers a read-through metric: fn is sampled at snapshot time and
// reported alongside counters. It lets components with plain uint64 fields
// (trunk cell counts, AAL5 frame totals) surface in the registry without an
// atomic rewrite. fn must be safe to call at snapshot time — for sim-side
// metrics that means outside Engine.Run or from the owning actor. A
// component whose registry must be scrapable from any goroutine has its
// Funcs read values it keeps in atomics: sighost's do, so a sighost
// registry, a real daemon's included, may be snapshotted anywhere.
func (r *Registry) Func(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// MetricCount returns how many metrics (counters, gauges, histograms, funcs)
// are registered. Scrapers compare it across ticks to detect lazily
// registered metrics cheaply, rescanning only on growth.
func (r *Registry) MetricCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.gauges) + len(r.hists) + len(r.funcs)
}

// Visit enumerates every registered metric in sorted-name order, one callback
// per kind (nil callbacks skip that kind). The callbacks run outside the
// registry lock and receive the live metric handles, letting scrapers resolve
// sources once instead of re-snapshotting.
func (r *Registry) Visit(counter func(string, *Counter), gauge func(string, *Gauge), hist func(string, *Histogram), fn func(string, func() uint64)) {
	r.mu.Lock()
	cnames := slices.Sorted(maps.Keys(r.counters))
	gnames := slices.Sorted(maps.Keys(r.gauges))
	hnames := slices.Sorted(maps.Keys(r.hists))
	fnames := slices.Sorted(maps.Keys(r.funcs))
	counters := make([]*Counter, len(cnames))
	for i, n := range cnames {
		counters[i] = r.counters[n]
	}
	gauges := make([]*Gauge, len(gnames))
	for i, n := range gnames {
		gauges[i] = r.gauges[n]
	}
	hists := make([]*Histogram, len(hnames))
	for i, n := range hnames {
		hists[i] = r.hists[n]
	}
	funcs := make([]func() uint64, len(fnames))
	for i, n := range fnames {
		funcs[i] = r.funcs[n]
	}
	r.mu.Unlock()
	if counter != nil {
		for i, n := range cnames {
			counter(n, counters[i])
		}
	}
	if gauge != nil {
		for i, n := range gnames {
			gauge(n, gauges[i])
		}
	}
	if hist != nil {
		for i, n := range hnames {
			hist(n, hists[i])
		}
	}
	if fn != nil {
		for i, n := range fnames {
			fn(n, funcs[i])
		}
	}
}

// Snapshot renders every metric into a plain, marshalable value. Counters and
// Funcs merge into one sorted list.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, fn := range r.funcs {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: fn()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		s.Hists = append(s.Hists, histSnap(name, h))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// Snapshot is a point-in-time copy of a registry, ordered by name and
// marshalable with encoding/json (durations serialize as nanoseconds).
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []HistSnap    `json:"hists,omitempty"`
}

// CounterSnap is one counter (or Func sample) in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge level plus its high-water mark.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistSnap is one histogram with derived quantiles and its raw buckets
// (empty buckets omitted), so consumers can verify bucket sums match Count.
type HistSnap struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Max     time.Duration `json:"max_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	Buckets []BucketSnap  `json:"buckets,omitempty"`
}

// BucketSnap is one non-empty histogram bucket: N observations <= Le (and
// greater than the previous bucket's Le).
type BucketSnap struct {
	Le time.Duration `json:"le_ns"`
	N  uint64        `json:"n"`
}

func histSnap(name string, h *Histogram) HistSnap {
	hs := HistSnap{
		Name:  name,
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	var counts [histBuckets]uint64
	for i := range counts {
		n := h.buckets[i].Load()
		counts[i] = n
		if n > 0 {
			hs.Buckets = append(hs.Buckets, BucketSnap{Le: bucketBound(i), N: n})
		}
	}
	hs.P50 = quantile(counts, hs.Count, hs.Max, 0.50)
	hs.P95 = quantile(counts, hs.Count, hs.Max, 0.95)
	hs.P99 = quantile(counts, hs.Count, hs.Max, 0.99)
	return hs
}

func quantile(counts [histBuckets]uint64, total uint64, max time.Duration, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			hi = min(hi, max)
			if hi < lo {
				return hi
			}
			frac := (rank - prev) / float64(n)
			return lo + time.Duration(frac*float64(hi-lo))
		}
	}
	return max
}

// Value returns the named counter (or Func sample) and whether it exists.
func (s Snapshot) Value(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Count returns the named counter's value, or zero if absent.
func (s Snapshot) Count(name string) uint64 {
	v, _ := s.Value(name)
	return v
}

// Hist returns the named histogram snapshot, or nil.
func (s Snapshot) Hist(name string) *HistSnap {
	for i := range s.Hists {
		if s.Hists[i].Name == name {
			return &s.Hists[i]
		}
	}
	return nil
}

// Text renders the snapshot as aligned "name value" lines: counters first,
// then gauges with their high-water marks, then histogram quantile summaries.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%s %d max=%d\n", g.Name, g.Value, g.Max)
	}
	for _, h := range s.Hists {
		fmt.Fprintf(&b, "%s count=%d p50=%v p95=%v p99=%v max=%v\n",
			h.Name, h.Count, h.P50, h.P95, h.P99, h.Max)
	}
	return b.String()
}

// JSON renders the snapshot as compact JSON.
func (s Snapshot) JSON() string {
	out, err := json.Marshal(s)
	if err != nil {
		return "{}" // unreachable: Snapshot is plain data
	}
	return string(out)
}
