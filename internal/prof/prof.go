// Package prof is the execution profiler for the simulation engine
// itself: where does the simulator's *own* wall-clock time go? It
// attributes event execution per proc kind and per explicit label,
// accounts per-shard window execution vs. barrier-stall time, and
// keeps a cross-shard (src,dst) post/byte matrix — the instrument
// every perf campaign runs first.
//
// The discipline matches trace/faults/tseries: a disabled profiler is
// a nil pointer and every hook compiled into the engine costs <5ns
// (gated by BenchmarkProfOverhead/disabled in make detgate).
//
// Determinism contract: with the same seed, the *event counts* (per
// shard, per label), the window/idle-skip counters, and the post/byte
// matrix are byte-identical at any worker count — they are functions
// of the virtual history, which workers never change. Wall-clock
// nanoseconds are not. CountsText exports only the deterministic
// half (TestDetGate hashes it at workers 1 and 4); Text, JSON and
// FlameFolded add the wall-time half for humans and flame viewers.
package prof

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LabelID indexes an EngineProf's label table. IDs are per-engine;
// exports key by name, never by ID, so cross-shard aggregation and
// determinism don't depend on interning order.
type LabelID uint32

// Pre-interned labels present in every EngineProf.
const (
	// LabelEngine is the root attribution: events scheduled from
	// engine context with no finer label.
	LabelEngine LabelID = 0
	// LabelCrossShard attributes events merged in from another
	// shard's outbox (the conservative-sync channel).
	LabelCrossShard LabelID = 1
)

// maxLabels bounds the per-engine label table so the bin array never
// reallocates: single-writer atomic bins stay safe to read from other
// goroutines (MGMT queries, tseries ticks) without a lock on the hot
// path. Interning past the bound degrades to LabelEngine.
const maxLabels = 256

// bin is one label's accumulator. Written by the owning shard's
// executor only; atomics make concurrent readers (mgmt, viewers) safe.
type bin struct {
	count atomic.Uint64
	wall  atomic.Int64 // nanoseconds
}

// EngineProf profiles one engine (one shard). Account/Label are
// called from the shard's executor; snapshots may be taken from any
// goroutine.
type EngineProf struct {
	shard int

	mu     sync.Mutex
	names  []string
	byName map[string]LabelID

	bins []bin // fixed length maxLabels; never reallocated
}

func newEngineProf(shard int) *EngineProf {
	p := &EngineProf{
		shard:  shard,
		byName: make(map[string]LabelID, 32),
		bins:   make([]bin, maxLabels),
	}
	p.names = append(p.names, "engine", "xshard")
	p.byName["engine"] = LabelEngine
	p.byName["xshard"] = LabelCrossShard
	return p
}

// Label interns name and returns its ID. Nil-safe: a nil receiver
// returns LabelEngine, so construction-time interning needs no guard.
// When the table is full the name degrades to LabelEngine rather than
// growing the bin array.
func (p *EngineProf) Label(name string) LabelID {
	if p == nil {
		return LabelEngine
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.byName[name]; ok {
		return id
	}
	if len(p.names) >= maxLabels {
		return LabelEngine
	}
	id := LabelID(len(p.names))
	name = strings.Clone(name) // don't pin a caller's larger backing array
	p.names = append(p.names, name)
	p.byName[name] = id
	return id
}

// ProcLabel interns the label for a spawned process. Proc names follow
// the kern convention "machine/kind#pid"; the machine prefix and the
// pid suffix are stripped so the table holds one label per proc *kind*,
// not one per process.
func (p *EngineProf) ProcLabel(name string) LabelID {
	if p == nil {
		return LabelEngine
	}
	// Every spawn comes through here, nearly always for a kind already
	// interned: look that up without building the string.
	var buf [64]byte
	label := append(append(buf[:0], "proc."...), ProcKind(name)...)
	p.mu.Lock()
	id, ok := p.byName[string(label)]
	p.mu.Unlock()
	if ok {
		return id
	}
	return p.Label(string(label))
}

// ProcKind reduces a proc name "machine/kind#pid" to its kind.
func ProcKind(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name = name[:i]
	}
	return name
}

// Account records one executed event under label l: wallNS of wall
// time. Called by the engine loop only when the profiler is attached,
// so it needs no nil check of its own — but keep one anyway so direct
// callers (tests, future hooks) inherit the nil-hook discipline.
func (p *EngineProf) Account(l LabelID, wallNS int64) {
	if p == nil {
		return
	}
	if int(l) >= maxLabels {
		l = LabelEngine
	}
	b := &p.bins[l]
	b.count.Add(1)
	b.wall.Add(wallNS)
}

// LabelStat is one label's share of a shard's execution.
type LabelStat struct {
	Label  string `json:"label"`
	Count  uint64 `json:"count"`
	WallNS int64  `json:"wall_ns"`
}

// ShardSnap is one shard's attribution snapshot, labels sorted by name.
type ShardSnap struct {
	Shard  int         `json:"shard"`
	Events uint64      `json:"events"`
	WallNS int64       `json:"wall_ns"`
	Labels []LabelStat `json:"labels"`
}

func (p *EngineProf) snapshot() ShardSnap {
	p.mu.Lock()
	names := append([]string(nil), p.names...)
	p.mu.Unlock()
	s := ShardSnap{Shard: p.shard}
	for i, name := range names {
		c := p.bins[i].count.Load()
		w := p.bins[i].wall.Load()
		if c == 0 && w == 0 {
			continue
		}
		s.Events += c
		s.WallNS += w
		s.Labels = append(s.Labels, LabelStat{Label: name, Count: c, WallNS: w})
	}
	sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Label < s.Labels[j].Label })
	return s
}

// GroupProf accounts ShardGroup window execution: per-shard busy and
// barrier-stall time, window and idle-skip counts, and the cross-shard
// post/byte matrix. The coordinator writes the window accumulators at
// each barrier; shard executors write their own matrix rows; all
// fields are atomic so viewers may read mid-run.
type GroupProf struct {
	n         int
	windows   atomic.Uint64
	idleSkips atomic.Uint64
	exec      []atomic.Int64  // per-shard busy ns inside windows
	stall     []atomic.Int64  // per-shard (window max - own) ns
	posts     []atomic.Uint64 // [src*n+dst] cross-shard records
	bytes     []atomic.Uint64 // [src*n+dst] payload bytes (PostSized)
}

func newGroupProf(n int) *GroupProf {
	return &GroupProf{
		n:     n,
		exec:  make([]atomic.Int64, n),
		stall: make([]atomic.Int64, n),
		posts: make([]atomic.Uint64, n*n),
		bytes: make([]atomic.Uint64, n*n),
	}
}

// StallNS reports shard i's accumulated barrier-stall nanoseconds.
// Atomic and monotonic, so a tseries rate series over it yields
// wall-stall per tick. Nil-safe for gauge closures.
func (g *GroupProf) StallNS(i int) int64 {
	if g == nil || i < 0 || i >= g.n {
		return 0
	}
	return g.stall[i].Load()
}

// AccountWindow folds one barrier window's per-shard wall durations
// in: each shard's stall is the gap to the window's critical (slowest)
// shard. With fewer workers than shards the windows serialize, so the
// "stall" reads as imbalance relative to the critical path rather than
// literal goroutine wait — same ranking, same hot shard.
func (g *GroupProf) AccountWindow(durNS []int64) {
	if g == nil {
		return
	}
	g.windows.Add(1)
	var max int64
	for _, d := range durNS {
		if d > max {
			max = d
		}
	}
	for i, d := range durNS {
		g.exec[i].Add(d)
		g.stall[i].Add(max - d)
	}
}

// NoteIdleSkip counts a window jumped over a globally idle gap — the
// lookahead-efficiency signal (skips mean the horizon, not the event
// density, was the limit).
func (g *GroupProf) NoteIdleSkip() {
	if g == nil {
		return
	}
	g.idleSkips.Add(1)
}

// NotePost records one cross-shard record src→dst carrying n payload
// bytes (0 for pure control posts).
func (g *GroupProf) NotePost(src, dst, n int) {
	if g == nil {
		return
	}
	i := src*g.n + dst
	g.posts[i].Add(1)
	g.bytes[i].Add(uint64(n))
}

// MatrixCell is one non-zero (src,dst) entry of the cross-shard
// traffic matrix.
type MatrixCell struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Posts uint64 `json:"posts"`
	Bytes uint64 `json:"bytes"`
}

// ShardWindowStat is one shard's window-time accounting.
type ShardWindowStat struct {
	Shard   int   `json:"shard"`
	ExecNS  int64 `json:"exec_ns"`
	StallNS int64 `json:"stall_ns"`
}

// GroupSnap is the ShardGroup-level snapshot.
type GroupSnap struct {
	Shards    int               `json:"shards"`
	Windows   uint64            `json:"windows"`
	IdleSkips uint64            `json:"idle_skips"`
	PerShard  []ShardWindowStat `json:"per_shard"`
	Matrix    []MatrixCell      `json:"matrix"`
}

func (g *GroupProf) snapshot() GroupSnap {
	s := GroupSnap{
		Shards:    g.n,
		Windows:   g.windows.Load(),
		IdleSkips: g.idleSkips.Load(),
	}
	for i := 0; i < g.n; i++ {
		s.PerShard = append(s.PerShard, ShardWindowStat{
			Shard:   i,
			ExecNS:  g.exec[i].Load(),
			StallNS: g.stall[i].Load(),
		})
	}
	for src := 0; src < g.n; src++ {
		for dst := 0; dst < g.n; dst++ {
			p := g.posts[src*g.n+dst].Load()
			b := g.bytes[src*g.n+dst].Load()
			if p == 0 && b == 0 {
				continue
			}
			s.Matrix = append(s.Matrix, MatrixCell{Src: src, Dst: dst, Posts: p, Bytes: b})
		}
	}
	return s
}

// Profiler is the top-level handle: one EngineProf per shard plus an
// optional GroupProf. Attach it with Engine.AttachProfiler or
// ShardGroup.AttachProfiler; a nil *Profiler everywhere means
// profiling off at <5ns per hook.
type Profiler struct {
	mu      sync.Mutex
	engines []*EngineProf
	group   *GroupProf
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// Engine returns (creating on first use) the per-engine profile for
// shard index i.
func (p *Profiler) Engine(i int) *EngineProf {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.engines) <= i {
		p.engines = append(p.engines, nil)
	}
	if p.engines[i] == nil {
		p.engines[i] = newEngineProf(i)
	}
	return p.engines[i]
}

// Group returns (creating on first use) the group profile sized for n
// shards.
func (p *Profiler) Group(n int) *GroupProf {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.group == nil {
		p.group = newGroupProf(n)
	}
	return p.group
}

// Snapshot is a full profile: per-shard attribution plus group window
// accounting (Group nil for a flat, unsharded run).
type Snapshot struct {
	Shards []ShardSnap `json:"shards"`
	Group  *GroupSnap  `json:"group,omitempty"`
}

// Snapshot captures the profile. Safe mid-run (values may be torn
// across labels, each label's pair is internally consistent enough for
// monitoring); exact once the engines are idle.
func (p *Profiler) Snapshot() Snapshot {
	var s Snapshot
	if p == nil {
		return s
	}
	p.mu.Lock()
	engines := append([]*EngineProf(nil), p.engines...)
	group := p.group
	p.mu.Unlock()
	for _, ep := range engines {
		if ep == nil {
			continue
		}
		s.Shards = append(s.Shards, ep.snapshot())
	}
	if group != nil {
		g := group.snapshot()
		s.Group = &g
	}
	return s
}

// CriticalRanking orders shards hottest-first by window execution time
// (falling back to attributed event wall time for flat runs), ties
// broken by shard index.
func (s Snapshot) CriticalRanking() []int {
	type row struct {
		shard int
		ns    int64
	}
	var rows []row
	if s.Group != nil {
		for _, ps := range s.Group.PerShard {
			rows = append(rows, row{ps.Shard, ps.ExecNS})
		}
	} else {
		for _, sh := range s.Shards {
			rows = append(rows, row{sh.Shard, sh.WallNS})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		return rows[i].shard < rows[j].shard
	})
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = r.shard
	}
	return out
}

// CriticalShard is the hottest shard (0 when empty).
func (s Snapshot) CriticalShard() int {
	r := s.CriticalRanking()
	if len(r) == 0 {
		return 0
	}
	return r[0]
}

// BarrierStallPct is total stall as a percentage of total window time
// across shards (0 for flat runs or before any window).
func (s Snapshot) BarrierStallPct() float64 {
	if s.Group == nil {
		return 0
	}
	var exec, stall int64
	for _, ps := range s.Group.PerShard {
		exec += ps.ExecNS
		stall += ps.StallNS
	}
	if exec+stall == 0 {
		return 0
	}
	return 100 * float64(stall) / float64(exec+stall)
}

// StallFraction reports shard i's stall share of its own window time.
func (s Snapshot) StallFraction(i int) float64 {
	if s.Group == nil {
		return 0
	}
	for _, ps := range s.Group.PerShard {
		if ps.Shard != i {
			continue
		}
		if ps.ExecNS+ps.StallNS == 0 {
			return 0
		}
		return float64(ps.StallNS) / float64(ps.ExecNS+ps.StallNS)
	}
	return 0
}

// CountsText renders the deterministic half of the profile: per-shard
// per-label event counts, window/idle-skip counters, and the
// cross-shard post/byte matrix. Same seed ⇒ byte-identical at any
// worker count (TestDetGate hashes workers 1 and 4).
func (p *Profiler) CountsText() string {
	s := p.Snapshot()
	var b strings.Builder
	b.WriteString("# prof counts (deterministic)\n")
	for _, sh := range s.Shards {
		fmt.Fprintf(&b, "shard %d: events %d\n", sh.Shard, sh.Events)
		for _, l := range sh.Labels {
			fmt.Fprintf(&b, "  %-24s %d\n", l.Label, l.Count)
		}
	}
	if g := s.Group; g != nil {
		fmt.Fprintf(&b, "group: shards %d windows %d idle-skips %d\n", g.Shards, g.Windows, g.IdleSkips)
		if len(g.Matrix) > 0 {
			b.WriteString("xshard matrix (src->dst posts bytes):\n")
			for _, c := range g.Matrix {
				fmt.Fprintf(&b, "  %d->%d %d %d\n", c.Src, c.Dst, c.Posts, c.Bytes)
			}
		}
	}
	return b.String()
}

// Text renders the full human profile: the deterministic counts plus
// wall-time attribution, per-shard stall fractions, and the critical
// ranking. Wall nanoseconds vary run to run — diff CountsText, read
// Text.
func (p *Profiler) Text() string {
	s := p.Snapshot()
	var b strings.Builder
	b.WriteString("# execution profile\n")
	if g := s.Group; g != nil {
		fmt.Fprintf(&b, "group: shards %d windows %d idle-skips %d\n", g.Shards, g.Windows, g.IdleSkips)
		b.WriteString("shard   exec          stall         stall%  events\n")
		for _, ps := range g.PerShard {
			var ev uint64
			for _, sh := range s.Shards {
				if sh.Shard == ps.Shard {
					ev = sh.Events
				}
			}
			fmt.Fprintf(&b, "%5d   %-12s  %-12s  %5.1f   %d\n",
				ps.Shard, fmtNS(ps.ExecNS), fmtNS(ps.StallNS),
				100*s.StallFraction(ps.Shard), ev)
		}
		fmt.Fprintf(&b, "barrier stall: %.1f%% of window time; critical shard: %d (ranking %s)\n",
			s.BarrierStallPct(), s.CriticalShard(), fmtRanking(s.CriticalRanking()))
		if len(g.Matrix) > 0 {
			b.WriteString("xshard matrix (src->dst posts bytes):\n")
			for _, c := range g.Matrix {
				fmt.Fprintf(&b, "  %d->%d %d %d\n", c.Src, c.Dst, c.Posts, c.Bytes)
			}
		}
	}
	for _, sh := range s.Shards {
		fmt.Fprintf(&b, "shard %d: events %d wall %s\n", sh.Shard, sh.Events, fmtNS(sh.WallNS))
		for _, l := range sh.Labels {
			avg := int64(0)
			if l.Count > 0 {
				avg = l.WallNS / int64(l.Count)
			}
			fmt.Fprintf(&b, "  %-24s %10d  %-12s avg %dns\n", l.Label, l.Count, fmtNS(l.WallNS), avg)
		}
	}
	return b.String()
}

// JSON renders the full snapshot as one JSON object. Field order is
// fixed by the snapshot structs, so same-seed runs at the same worker
// count produce identical bytes once the engines are idle.
func (p *Profiler) JSON() string {
	b, err := json.Marshal(p.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// FlameFolded renders the profile as folded stacks for flame-graph
// tools (one "frame;frame value" line per stack): per-shard label wall
// time plus a BARRIER-STALL frame per shard, so stalls and work share
// one flame.
func (p *Profiler) FlameFolded() string {
	s := p.Snapshot()
	var b strings.Builder
	for _, sh := range s.Shards {
		for _, l := range sh.Labels {
			if l.WallNS <= 0 {
				continue
			}
			fmt.Fprintf(&b, "shard%d;%s %d\n", sh.Shard, l.Label, l.WallNS)
		}
	}
	if g := s.Group; g != nil {
		for _, ps := range g.PerShard {
			if ps.StallNS <= 0 {
				continue
			}
			fmt.Fprintf(&b, "shard%d;BARRIER-STALL %d\n", ps.Shard, ps.StallNS)
		}
	}
	return b.String()
}

func fmtRanking(r []int) string {
	var b strings.Builder
	for i, s := range r {
		if i > 0 {
			b.WriteString(" > ")
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

// fmtNS renders nanoseconds with a readable unit.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
