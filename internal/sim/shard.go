package sim

// Sharded parallel simulation. A ShardGroup partitions one virtual
// world across several Engines ("shards"), each advancing its own event
// heap, synchronized conservatively: the group moves in barrier windows
// no wider than the lookahead, and a cross-shard event may only be
// scheduled at least one lookahead in the future. Since nothing a shard
// does inside the window [W, W+L) can affect another shard before W+L,
// every shard can execute its window with no locks and no knowledge of
// its neighbors' progress — the classic conservative-synchronization
// argument, with the lookahead supplied by the physics of the topology
// (trunk propagation delay; see DESIGN.md §14).
//
// Worker count is an execution detail, never a semantic one: each
// shard's window is self-contained, and the barrier merge inserts
// cross-shard records in a fixed (source-shard, send-order) sequence,
// so a run's virtual history is byte-identical whether the windows
// execute on one goroutine or eight. workers=1 is the golden reference.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"xunet/internal/prof"
)

// maxDuration is the +infinity sentinel for horizon computations.
const maxDuration = time.Duration(1<<63 - 1)

// xrec is one cross-shard event record staged in an outbox: the
// absolute virtual delivery time and the callback to run on the
// destination shard. Callers keep the clean path allocation-free by
// posting pooled, pre-bound closures (the PR 5 frame discipline);
// the outbox slices themselves retain capacity across windows.
type xrec struct {
	at time.Duration
	fn func()
}

// ShardGroup is a set of engines advancing one simulation in parallel.
// Create with NewShardGroup; drive with RunUntil/Run; always Close when
// done so shard coroutines and window helpers are joined.
type ShardGroup struct {
	shards    []*Engine
	lookahead time.Duration
	workers   int
	now       time.Duration

	// outbox[src][dst] stages records posted by shard src for shard dst
	// during the current window. Each row has exactly one writer (the
	// goroutine executing shard src's window), and the coordinator reads
	// all rows only after every shard has passed the barrier.
	outbox [][][]xrec

	closed atomic.Bool // set by Close; helpers exit when they see it

	// The window barrier (see windowAll for the protocol). The
	// coordinator — whoever called RunUntil/Run — and workers-1 helper
	// goroutines (started lazily) claim shards by winning their taken
	// flags; finished counts completed shard windows; epoch numbers the
	// windows and is what idle helpers watch, spinning first and then
	// asleep on wake, where parked counts them.
	winLimit time.Duration
	winIncl  bool
	taken    []atomic.Bool
	finished atomic.Int32
	epoch    atomic.Uint32
	helpers  int
	wg       sync.WaitGroup
	mu       sync.Mutex
	wake     sync.Cond
	parked   atomic.Int32

	// Per-shard results of the current window, each slot written by
	// whoever ran that shard and read by the coordinator after the
	// barrier (the finished counter supplies the happens-before): what
	// the window panicked with, and — when gprof, nil unless
	// AttachProfiler armed it, is set — its wall duration.
	panics []any
	gprof  *prof.GroupProf
	winDur []int64
}

// A helper waiting for the next window polls the epoch spinsBeforePark
// times — a tenth of a millisecond or two — before it goes to sleep:
// long enough to ride out the coordinator's merge and an uneven window
// (a futex sleep and wake per window is what made two workers slower
// than one), short enough that a group nobody is driving burns no CPU.
// Every spinsPerYield polls a waiter yields its P, which keeps a group
// with more workers than GOMAXPROCS live.
const (
	spinsPerYield   = 256
	spinsBeforePark = 128 * spinsPerYield
)

// NewShardGroup returns n engines synchronized at the given lookahead.
// Shard 0 is seeded with the master seed itself (a 1-shard group is a
// plain engine, byte-for-byte); other shards draw decorrelated streams
// derived from it, so same-seed runs are identical regardless of worker
// count. Lookahead must be positive when n > 1: it is the minimum
// virtual delay of every cross-shard Post.
func NewShardGroup(seed uint64, n int, lookahead time.Duration) *ShardGroup {
	if n < 1 {
		panic("sim: NewShardGroup with no shards")
	}
	if n > 1 && lookahead <= 0 {
		panic("sim: NewShardGroup with non-positive lookahead")
	}
	g := &ShardGroup{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		workers:   1,
		outbox:    make([][][]xrec, n),
		taken:     make([]atomic.Bool, n),
		panics:    make([]any, n),
		winDur:    make([]int64, n),
	}
	g.wake.L = &g.mu
	for i := range g.shards {
		e := New(ShardSeed(seed, i))
		e.group = g
		e.shardID = i
		g.shards[i] = e
		g.outbox[i] = make([][]xrec, n)
	}
	return g
}

// ShardSeed derives shard i's RNG seed from the master seed. Shard 0
// keeps the master itself (the 1-shard degenerate case matches a plain
// engine exactly); higher shards get SplitMix64-scrambled streams.
func ShardSeed(master uint64, shard int) uint64 {
	if shard == 0 {
		return master
	}
	z := master + uint64(shard)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Shards reports the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Now returns the group's virtual time: the barrier horizon every shard
// has advanced to.
func (g *ShardGroup) Now() time.Duration { return g.now }

// SetWorkers sets how many goroutines execute shard windows — the
// caller of RunUntil/Run plus n-1 helpers. It bounds to [1, Shards()]
// and must be called between runs, not during one. Changing it never
// changes results — only wall-clock time.
func (g *ShardGroup) SetWorkers(n int) {
	n = min(max(n, 1), len(g.shards))
	if g.helpers > 0 && n > 1 && n-1 != g.helpers {
		panic("sim: SetWorkers after the window helpers started")
	}
	g.workers = n
}

// AttachProfiler binds every shard engine and the group's window
// accounting to p. Call before the first RunUntil/Run (the window
// helpers read the hook without a lock once started); attaching nil is
// a no-op.
func (g *ShardGroup) AttachProfiler(p *prof.Profiler) {
	if p == nil {
		return
	}
	for _, e := range g.shards {
		e.AttachProfiler(p)
	}
	g.gprof = p.Group(len(g.shards))
}

// post stages a cross-shard record; called by Engine.Post/PostSized,
// which also feed the (src,dst) traffic matrix when profiling is on.
func (g *ShardGroup) post(src, dst int, at time.Duration, fn func()) {
	g.outbox[src][dst] = append(g.outbox[src][dst], xrec{at: at, fn: fn})
}

// merge drains every outbox into the destination heaps. Sources merge
// in index order and records within a row in send order, so equal-time
// cross events tie-break deterministically — the heap's sequence
// numbers are assigned right here, by one goroutine, in a fixed order.
func (g *ShardGroup) merge() {
	for dst, e := range g.shards {
		for src := range g.shards {
			row := g.outbox[src][dst]
			if len(row) == 0 {
				continue
			}
			for i := range row {
				e.scheduleAbs(row[i].at, row[i].fn)
				row[i].fn = nil // drop the closure ref; the slice is reused
			}
			g.outbox[src][dst] = row[:0]
		}
	}
}

// earliest returns the soonest scheduled event across all shards
// (maxDuration when every heap is empty). Valid only at a barrier,
// after merge, when the outboxes are empty.
func (g *ShardGroup) earliest() time.Duration {
	min := maxDuration
	for _, e := range g.shards {
		if len(e.events) > 0 && e.events[0].at < min {
			min = e.events[0].at
		}
	}
	return min
}

// windowAll executes one window on every shard: sequentially in shard
// order when workers == 1 (the golden reference), otherwise shared out
// between the coordinator and its helpers. Either way each shard's
// window is the same single-threaded computation.
//
// The parallel barrier opens a window in four steps, in this order:
//
//  1. winLimit/winIncl are written (plain stores);
//  2. finished is reset to 0;
//  3. every shard's taken flag is cleared — claims reopen;
//  4. epoch is incremented, and sleeping helpers are woken.
//
// Everyone then claims shards by flipping their taken flags (see
// claimShards), bumping finished after each window run, and the
// coordinator returns once finished reaches the shard count. A helper
// from the previous window may still be scanning flags at step 3 and
// win one of the new window before step 4: that is sound, because a
// flag can only be won after a clear, once per clear, and each clear
// happens after the limits the winner will read (1) and after the reset
// of the count it will bump (2). Step 4 is last because it only ends a
// wait. Every shard does get run: the coordinator's own scan follows
// the clears, so what nobody else has taken by then it takes itself.
// The coordinator reads the per-shard results after observing the final
// finished.Add, which follows the writes it reads.
func (g *ShardGroup) windowAll(limit time.Duration, inclusive bool) {
	if g.workers <= 1 || len(g.shards) == 1 {
		for i := range g.shards {
			g.shardWindow(i, limit, inclusive)
		}
		if g.gprof != nil {
			g.gprof.AccountWindow(g.winDur)
		}
		return
	}
	g.ensureHelpers()
	g.winLimit, g.winIncl = limit, inclusive
	g.finished.Store(0)
	for i := range g.taken {
		g.taken[i].Store(false)
	}
	g.epoch.Add(1)
	g.wakeHelpers()
	g.claimShards(0)
	// Whoever holds the shards still out is executing them, so this wait
	// is bounded by one shard window and never sleeps.
	for spins := 1; int(g.finished.Load()) != len(g.shards); spins++ {
		if spins%spinsPerYield == 0 {
			runtime.Gosched()
		}
	}
	for i, r := range g.panics {
		if r != nil {
			g.panics[i] = nil
			panic(r)
		}
	}
	if g.gprof != nil {
		g.gprof.AccountWindow(g.winDur)
	}
}

// claimShards runs every shard window that participant id — 0 is the
// coordinator, helpers count from 1 — can claim: first the shards that
// are its own by residue, then whichever others nobody has taken. The
// home pass is what makes two workers faster than one: a shard that
// runs on the same goroutine window after window keeps its heap, procs
// and tables in that core's cache, where handing shards out first come
// first served moved each one between cores every few microseconds and
// inflated its work by a third. The second pass keeps the balance: a
// participant that is a whole shard window ahead (an uneven window, a
// helper descheduled for a GC worker, more workers than Ps) takes what
// the laggard has not started.
func (g *ShardGroup) claimShards(id int) {
	for i := id; i < len(g.shards); i += g.workers {
		g.tryShard(i)
	}
	for i := range g.shards {
		g.tryShard(i)
	}
}

// tryShard runs shard i's window if nobody has claimed it.
func (g *ShardGroup) tryShard(i int) {
	if g.taken[i].Load() || !g.taken[i].CompareAndSwap(false, true) {
		return
	}
	g.runShard(i)
	g.finished.Add(1)
}

// runShard executes shard i's window. A panic — a proc body's or an
// event callback's — is parked in the shard's slot with its stack and
// re-raised by the coordinator after the barrier: RunUntil's caller is
// the only goroutine that can do anything about it, and unwinding here
// would leave the other shards running with nobody to join them.
func (g *ShardGroup) runShard(i int) {
	defer func() {
		if r := recover(); r != nil {
			g.panics[i] = fmt.Sprintf("sim: shard %d: %v\n%s", i, r, debug.Stack())
		}
	}()
	g.shardWindow(i, g.winLimit, g.winIncl)
}

// shardWindow runs shard i's window, timing it into winDur when the
// group is profiled.
func (g *ShardGroup) shardWindow(i int, limit time.Duration, inclusive bool) {
	if g.gprof == nil {
		g.shards[i].runWindow(limit, inclusive)
		return
	}
	t0 := time.Now()
	g.shards[i].runWindow(limit, inclusive)
	g.winDur[i] = time.Since(t0).Nanoseconds()
}

// ensureHelpers starts the persistent window helpers.
func (g *ShardGroup) ensureHelpers() {
	if g.helpers > 0 {
		return
	}
	g.helpers = g.workers - 1
	g.wg.Add(g.helpers)
	seen := g.epoch.Load()
	for id := 1; id <= g.helpers; id++ {
		go g.help(id, seen)
	}
}

// help is helper id's life: wait for a window it has not seen, take
// shards from it, repeat until Close.
func (g *ShardGroup) help(id int, seen uint32) {
	defer g.wg.Done()
	for {
		seen = g.awaitEpoch(seen)
		if g.closed.Load() {
			return
		}
		g.claimShards(id)
	}
}

// awaitEpoch returns once the epoch has moved past seen: after a bounded
// spin if the next window opens soon, otherwise after sleeping on wake.
func (g *ShardGroup) awaitEpoch(seen uint32) uint32 {
	for spins := 1; spins <= spinsBeforePark; spins++ {
		if ep := g.epoch.Load(); ep != seen {
			return ep
		}
		if spins%spinsPerYield == 0 {
			runtime.Gosched()
		}
	}
	g.mu.Lock()
	// parked is raised before the epoch is re-read, and wakeHelpers
	// reads it after moving the epoch: one of the two sees the other.
	g.parked.Add(1)
	for g.epoch.Load() == seen {
		g.wake.Wait()
	}
	g.parked.Add(-1)
	g.mu.Unlock()
	return g.epoch.Load()
}

// wakeHelpers rouses helpers asleep in awaitEpoch; call after moving the
// epoch. With every helper still spinning it is one atomic load.
func (g *ShardGroup) wakeHelpers() {
	if g.parked.Load() > 0 {
		g.mu.Lock()
		g.wake.Broadcast()
		g.mu.Unlock()
	}
}

// RunUntil advances the whole group to virtual time t: conservative
// windows of at most one lookahead (jumping over globally idle gaps),
// a barrier merge after each, and a final inclusive pass so events
// scheduled at exactly t execute, matching Engine.RunUntil semantics.
func (g *ShardGroup) RunUntil(t time.Duration) {
	if g.closed.Load() {
		panic("sim: RunUntil on a closed ShardGroup")
	}
	g.merge() // adopt records posted while the group was idle
	for g.now < t {
		start := g.now
		if e := g.earliest(); e > start {
			// Nothing anywhere before e: jump the window forward. Safe
			// because the outboxes are empty at a barrier, so no event
			// can materialize before the earliest scheduled one.
			start = e
			g.gprof.NoteIdleSkip()
		}
		start = min(start, t)
		limit := start + g.lookahead
		if g.lookahead <= 0 || limit > t || limit < start {
			limit = t
		}
		g.windowAll(limit, false)
		g.merge()
		g.now = limit
	}
	// Boundary pass: events at exactly t (including cross records that
	// landed right on the horizon). Anything they post lands > t.
	g.windowAll(t, true)
	g.merge()
}

// Close shuts the group down: the window helpers are joined, every
// shard's live processes are killed and its coroutines released, and
// staged cross-shard records are dropped. Idempotent. The PR 7 shutdown
// contract: tests assert no goroutine leak after Close, replacing the
// old rely-on-defer-drain discipline.
func (g *ShardGroup) Close() {
	if g.closed.Swap(true) {
		return
	}
	if g.helpers > 0 {
		g.epoch.Add(1)
		g.wakeHelpers()
		g.wg.Wait()
	}
	for _, e := range g.shards {
		e.Shutdown()
	}
	for src := range g.outbox {
		for dst := range g.outbox[src] {
			g.outbox[src][dst] = nil
		}
	}
}

// PostSized schedules fn on dst's shard after virtual delay d. Same-engine
// posts degrade to Schedule. Cross-shard posts are the conservative
// synchronization protocol's only channel, so d must be at least the
// group lookahead — violating that would let a shard reach into a
// window a neighbor may already be executing, and panics loudly instead
// of corrupting the run. size is the number of payload bytes the record
// represents (0 for pure control posts), for the profiler's cross-shard
// traffic matrix; it never affects the simulation.
func (e *Engine) PostSized(dst *Engine, d time.Duration, size int, fn func()) {
	if dst == e || e.group == nil {
		e.Schedule(d, fn)
		return
	}
	g := e.group
	if dst.group != g {
		panic("sim: Post to an engine outside this shard group")
	}
	if d < g.lookahead {
		panic(fmt.Sprintf("sim: cross-shard Post delay %v below lookahead %v", d, g.lookahead))
	}
	g.gprof.NotePost(e.shardID, dst.shardID, size)
	g.post(e.shardID, dst.shardID, e.now+d, fn)
}

// scheduleAbs inserts an event at an absolute virtual time. The time
// must not be in the shard's past (the merge barrier guarantees this for
// cross-shard records). Cross-shard records execute under the xshard
// label: the originating label lives in another shard's table, so
// attribution hands off at the boundary (the matrix carries the src side).
func (e *Engine) scheduleAbs(at time.Duration, fn func()) {
	e.enqueue(at-e.now, prof.LabelCrossShard).fn = fn
}

// runWindow processes this shard's events up to limit — strictly before
// it for interior windows, inclusively for the boundary pass — then
// advances the clock to the window edge so every shard leaves the
// barrier at the same instant.
func (e *Engine) runWindow(limit time.Duration, inclusive bool) {
	if e.running {
		panic("sim: runWindow called reentrantly")
	}
	e.running = true
	for len(e.events) > 0 {
		at := e.events[0].at
		if at > limit || (!inclusive && at == limit) {
			break
		}
		e.exec(e.events.pop())
	}
	e.now = max(e.now, limit)
	e.running = false
}
