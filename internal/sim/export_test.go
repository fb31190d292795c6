package sim

import "time"

// Post is PostSized for a pure control post (no payload bytes).
func (e *Engine) Post(dst *Engine, d time.Duration, fn func()) {
	e.PostSized(dst, d, 0, fn)
}

// Pending reports whether the callback has neither run nor been stopped.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Done reports whether the process body has returned (or been killed).
func (p *Proc) Done() bool { return p.done }

// Parked reports how many processes are currently parked.
func (e *Engine) Parked() int { return e.parked }

// Live reports how many processes have been started and not finished.
func (e *Engine) Live() int { return e.live }

// Pending reports exactly how many scheduled events remain queued.
// Stopped timers leave the heap immediately, so they are not counted.
func (e *Engine) Pending() int { return len(e.events) }

// Pending reports the total scheduled events across all shards (staged
// cross-shard records are counted once merged).
func (g *ShardGroup) Pending() int {
	total := 0
	for _, e := range g.shards {
		total += e.Pending()
	}
	return total
}

// RunFor advances the group by virtual duration d.
func (g *ShardGroup) RunFor(d time.Duration) { g.RunUntil(g.now + d) }

// Run processes windows until no shard has a scheduled event left.
// Parked processes stay parked, as with Engine.Run.
func (g *ShardGroup) Run() {
	g.merge()
	for {
		next := g.earliest()
		if next == maxDuration {
			return
		}
		limit := next + g.lookahead
		if g.lookahead <= 0 || limit < next {
			limit = next
		}
		g.windowAll(limit, true)
		g.merge()
		if limit > g.now {
			g.now = limit
		}
	}
}

// Live sums live processes across shards.
func (g *ShardGroup) Live() int {
	total := 0
	for _, e := range g.shards {
		total += e.Live()
	}
	return total
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }
