package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// shardPingWorkload wires nShards shards into a ring: each shard runs a
// local ticker that consumes randomness and occasionally posts a
// cross-shard record to its successor, which logs the arrival, and a
// pair of procs handing a token back and forth (so coroutines are
// resumed from whichever goroutine claims the shard's window). The log
// captures (shard, virtual time, rng draw) triples — any divergence in
// execution order or RNG stream shows up as a byte difference.
func shardPingWorkload(workers int) string {
	const nShards = 4
	const lookahead = 5 * time.Millisecond
	g := NewShardGroup(42, nShards, lookahead)
	defer g.Close()
	g.SetWorkers(workers)

	logs := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		i := i
		e := g.Shard(i)
		next := g.Shard((i + 1) % nShards)
		var tick func()
		tick = func() {
			r := e.Rand().Uint64()
			logs[i] += fmt.Sprintf("s%d t=%v r=%x\n", i, e.Now(), r&0xffff)
			if r%3 == 0 {
				from, at := i, e.Now()
				e.Post(next, lookahead+time.Duration(r%5)*time.Millisecond, func() {
					logs[(from+1)%nShards] += fmt.Sprintf("s%d t=%v x-from=%d sent=%v\n",
						(from+1)%nShards, next.Now(), from, at)
				})
			}
			if e.Now() < 200*time.Millisecond {
				e.Schedule(time.Duration(1+r%7)*time.Millisecond, tick)
			}
		}
		e.Schedule(0, tick)
		q := NewQueue[int]()
		e.Go("producer", func(p *Proc) {
			for n := 0; ; n++ {
				p.Sleep(time.Duration(1+e.Rand().Intn(9)) * time.Millisecond)
				q.Put(n)
			}
		})
		e.Go("consumer", func(p *Proc) {
			for {
				n, _ := q.Get(p)
				logs[i] += fmt.Sprintf("s%d t=%v token=%d\n", i, p.Now(), n)
			}
		})
	}
	g.RunUntil(250 * time.Millisecond)
	var all string
	for _, l := range logs {
		all += l
	}
	return all
}

func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	ref := shardPingWorkload(1)
	if ref == "" {
		t.Fatal("workload produced no log")
	}
	for _, w := range []int{2, 4} {
		if got := shardPingWorkload(w); got != ref {
			t.Fatalf("workers=%d log diverges from workers=1 golden reference", w)
		}
	}
}

// More workers than GOMAXPROCS must neither hang (a helper that only
// spun would starve whoever holds the shard everyone waits for) nor
// change the history.
func TestShardGroupWorkersAboveGOMAXPROCS(t *testing.T) {
	ref := shardPingWorkload(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		if got := shardPingWorkload(4); got != ref {
			t.Fatal("workers=4 at GOMAXPROCS=1 diverges from the workers=1 fingerprint")
		}
	}
}

// Helpers spin only for a bounded time: once nobody is driving the
// group they must be asleep on the condition variable (parked counts
// exactly those), wake for the next run, and be gone after Close.
func TestShardGroupIdleHelpersPark(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewShardGroup(5, 4, time.Millisecond)
	g.SetWorkers(4)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		g.Shard(0).Schedule(100*time.Microsecond, tick)
	}
	g.Shard(0).Schedule(0, tick)
	awaitParked := func(when string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for int(g.parked.Load()) != g.helpers {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d helpers parked after 2s", when, g.parked.Load(), g.helpers)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	g.RunUntil(20 * time.Millisecond)
	if g.helpers != 3 {
		t.Fatalf("helpers = %d, want workers-1 = 3", g.helpers)
	}
	awaitParked("after first RunUntil")
	before := ticks
	g.RunUntil(40 * time.Millisecond) // parked helpers must not wedge the next window
	if ticks == before {
		t.Fatal("second RunUntil made no progress")
	}
	awaitParked("after second RunUntil")
	g.Close()
	if n := g.parked.Load(); n != 0 {
		t.Fatalf("%d helpers still parked after Close", n)
	}
	waitGoroutines(t, base, "after Close")
}

func TestShardSeedDegenerate(t *testing.T) {
	if ShardSeed(777, 0) != 777 {
		t.Fatal("shard 0 must keep the master seed (1-shard group == plain engine)")
	}
	if ShardSeed(777, 1) == 777 || ShardSeed(777, 1) == ShardSeed(777, 2) {
		t.Fatal("shard streams must be decorrelated")
	}
}

func TestPostLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(1, 2, 10*time.Millisecond)
	defer g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard Post below lookahead must panic")
		}
	}()
	g.Shard(0).Schedule(0, func() {
		g.Shard(0).Post(g.Shard(1), 5*time.Millisecond, func() {})
	})
	g.RunUntil(time.Millisecond)
}

func TestPostSameShardIsSchedule(t *testing.T) {
	g := NewShardGroup(1, 2, 10*time.Millisecond)
	defer g.Close()
	ran := false
	// Below-lookahead delay is fine same-shard: it's a plain Schedule.
	g.Shard(0).Post(g.Shard(0), time.Millisecond, func() { ran = true })
	g.RunUntil(5 * time.Millisecond)
	if !ran {
		t.Fatal("same-shard Post did not run")
	}
}

func TestRunUntilBoundaryEventRuns(t *testing.T) {
	g := NewShardGroup(1, 2, 10*time.Millisecond)
	defer g.Close()
	var atT, crossAtT bool
	g.Shard(0).Schedule(100*time.Millisecond, func() { atT = true })
	// A cross record landing exactly on the horizon t.
	g.Shard(0).Schedule(90*time.Millisecond, func() {
		g.Shard(0).Post(g.Shard(1), 10*time.Millisecond, func() { crossAtT = true })
	})
	g.RunUntil(100 * time.Millisecond)
	if !atT || !crossAtT {
		t.Fatalf("boundary events skipped: local=%v cross=%v", atT, crossAtT)
	}
	if g.Now() != 100*time.Millisecond {
		t.Fatalf("group clock %v, want 100ms", g.Now())
	}
}

func TestShardGroupRunDrains(t *testing.T) {
	g := NewShardGroup(3, 3, time.Millisecond)
	defer g.Close()
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 10 {
			src := g.Shard(hops % 3)
			src.Post(g.Shard((hops+1)%3), time.Millisecond, hop)
		}
	}
	g.Shard(0).Schedule(0, hop)
	g.Run()
	if hops != 10 {
		t.Fatalf("hops = %d, want 10", hops)
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d after Run", g.Pending())
	}
}

func TestCrossShardPostZeroAlloc(t *testing.T) {
	g := NewShardGroup(9, 2, time.Millisecond)
	defer g.Close()
	e0, e1 := g.Shard(0), g.Shard(1)
	// Pooled pre-bound closure: the PR 5 discipline callers follow.
	var sink int
	fn := func() { sink++ }
	// Warm the outbox rows and both event pools.
	for i := 0; i < 64; i++ {
		e0.Post(e1, time.Millisecond, fn)
	}
	g.RunUntil(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			e0.Post(e1, time.Millisecond, fn)
		}
		g.RunFor(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("cross-shard post+merge allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func TestShardGroupCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewShardGroup(5, 4, time.Millisecond)
	g.SetWorkers(4)
	for i := 0; i < 4; i++ {
		e := g.Shard(i)
		e.Go("short", func(p *Proc) {})            // leaves an idle pooled coroutine
		e.Go("parker", func(p *Proc) { p.Park() }) // leaks unless killed
		e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	}
	g.RunUntil(20 * time.Millisecond) // starts the window helpers too
	if g.Live() != 8 {
		t.Fatalf("live = %d, want 8", g.Live())
	}
	g.Close()
	g.Close() // idempotent
	waitGoroutines(t, before, "after Close")
}

func TestOneShardGroupMatchesPlainEngine(t *testing.T) {
	run := func(e *Engine, until func(time.Duration)) string {
		var log string
		var tick func()
		tick = func() {
			log += fmt.Sprintf("t=%v r=%x\n", e.Now(), e.Rand().Uint64()&0xffff)
			if e.Now() < 50*time.Millisecond {
				e.Schedule(3*time.Millisecond, tick)
			}
		}
		e.Schedule(0, tick)
		until(60 * time.Millisecond)
		return log
	}
	plain := New(123)
	defer plain.Close()
	a := run(plain, plain.RunUntil)
	g := NewShardGroup(123, 1, 0)
	defer g.Close()
	b := run(g.Shard(0), g.RunUntil)
	if a != b {
		t.Fatal("1-shard group diverges from plain engine at the same seed")
	}
}
