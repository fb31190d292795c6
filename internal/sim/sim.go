// Package sim provides the discrete-event simulation engine under the
// reproduced Xunet world: a virtual clock, deterministic pseudo-random
// numbers, cancellable timers, and cooperatively-scheduled processes.
//
// Everything in the simulated world — kernels, sighosts, switches,
// applications — runs on one Engine. Exactly one flow of control executes
// at a time: either the engine itself (running an event callback) or a
// single Proc that the engine has resumed. Procs are coroutines: the
// engine switches into one and it switches back, with no scheduler in
// between. Handoffs are explicit, so simulated code needs no locks and
// every run with the same seed is bit-for-bit reproducible. Processes may
// block (Park, Sleep, Queue.Get), which is what lets application code in
// examples look exactly like the paper's synchronous Figures 5 and 6.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"

	"xunet/internal/prof"
)

// Engine is a discrete-event scheduler with cooperative processes.
// Create one with New; it is not safe for concurrent use from outside
// the simulation (the simulation itself is internally serialized).
type Engine struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	running bool
	live    int // procs started and not yet finished
	parked  int // of those, how many are in Park
	rng     *Rand
	current *Proc // the process currently holding execution, if any

	// Live procs in spawn order (intrusive list through Proc.prev/next),
	// so Shutdown kills — and exit hooks run — in the same order every
	// run.
	firstProc, lastProc *Proc

	// idle holds coroutines whose proc has finished, waiting to run the
	// next spawned proc's body: a warm Go costs no goroutine creation.
	idle []*coro

	// free is the event free list: every event that leaves the heap
	// (executed or stopped) is recycled, so a steady-state simulation
	// schedules callbacks without allocating. Its draws are the
	// engine-internals pool hits and misses.
	free FreeList[event]

	// group and shardID bind this engine into a ShardGroup (see
	// shard.go); both stay zero for a plain standalone engine.
	group   *ShardGroup
	shardID int

	// Execution profiling (internal/prof). prof is nil unless a
	// profiler is attached; curLabel is the label of the event being
	// executed, inherited by everything it schedules.
	prof     *prof.EngineProf
	curLabel prof.LabelID

	// Always-on engine internals, exposed through the accessors below
	// and (per machine) as obs metrics: executed events, process
	// dispatches and the heap high-water mark.
	execCount  uint64
	dispatches uint64
	heapHiWat  int

	// A shard group's engines are allocated back to back and written by
	// different cores on every event; the pad keeps one engine's
	// counters off the cache line (and its prefetched neighbour) of the
	// next one's clock and heap.
	_ [128]byte
}

// New returns an engine with its clock at zero and randomness seeded
// with seed (two engines with equal seeds behave identically).
func New(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time, measured from engine creation.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// event is a scheduled callback: fn(), or afn(arg) when armed through
// ScheduleArg. Events are pooled: gen increments each time the struct is
// recycled, so stale Timer handles can tell that the event they pointed
// at is gone.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	afn   func(arg any)
	arg   any
	index int
	gen   uint64
	label prof.LabelID
}

// Timer is a handle to a scheduled callback. The zero value is inert
// (Stop reports false). Timers are values, not allocations: they carry
// a generation stamp so a handle held past its event's execution (or
// past a Stop) safely becomes a no-op even once the event struct has
// been recycled for a later callback.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Stop cancels the timer, removing the event from the schedule
// immediately. It reports whether the callback was still pending (false
// if it already ran or was stopped).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.index < 0 {
		return false
	}
	t.e.events.remove(t.ev.index)
	t.e.release(t.ev)
	return true
}

// release recycles an event that is no longer in the heap.
func (e *Engine) release(ev *event) {
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.gen++
	e.free.Put(ev)
}

// Schedule arranges for fn to run in engine context after virtual delay
// d (immediately-next if d <= 0). Events at equal times run in the order
// they were scheduled. The event inherits the profiling label of the
// event currently executing, so attribution follows causality without
// any per-call bookkeeping.
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	return e.ScheduleL(d, e.curLabel, fn)
}

// ScheduleL is Schedule with an explicit profiling label (see
// internal/prof): the event's execution is attributed to label instead
// of the scheduling context. Labels are free when no profiler is
// attached — Label/ProfLabel return 0 on a nil profile.
func (e *Engine) ScheduleL(d time.Duration, label prof.LabelID, fn func()) Timer {
	ev := e.enqueue(d, label)
	ev.fn = fn
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// ScheduleArg is Schedule for a callback that takes its state as an
// argument. With fn a package-level function and arg a pointer to the
// record the callback works on, arming allocates nothing — which is why
// everything on a call's path (proc dispatches, queue timeouts, packet
// arrivals, retransmit timers) schedules through it instead of binding
// a closure per event.
func (e *Engine) ScheduleArg(d time.Duration, fn func(arg any), arg any) Timer {
	return e.ScheduleArgL(d, e.curLabel, fn, arg)
}

// ScheduleArgL is ScheduleArg with an explicit profiling label.
func (e *Engine) ScheduleArgL(d time.Duration, label prof.LabelID, fn func(arg any), arg any) Timer {
	ev := e.enqueue(d, label)
	ev.afn, ev.arg = fn, arg
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// enqueue puts a pooled event d from now on the heap; the caller fills
// in the callback.
func (e *Engine) enqueue(d time.Duration, label prof.LabelID) *event {
	d = max(d, 0)
	ev := e.free.Get()
	ev.at, ev.seq, ev.label = e.now+d, e.seq, label
	e.seq++
	e.events.push(ev)
	if len(e.events) > e.heapHiWat {
		e.heapHiWat = len(e.events)
	}
	return ev
}

// exec runs one popped event: clock advance, release to the pool, then
// the callback — timed and attributed when a profiler is attached.
func (e *Engine) exec(ev *event) {
	e.now = ev.at
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	label := ev.label
	e.release(ev)
	e.execCount++
	if p := e.prof; p != nil {
		prev := e.curLabel
		e.curLabel = label
		t0 := time.Now()
		call(fn, afn, arg)
		p.Account(label, time.Since(t0).Nanoseconds())
		e.curLabel = prev
	} else {
		call(fn, afn, arg)
	}
}

func call(fn func(), afn func(any), arg any) {
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Proc is a cooperatively-scheduled simulated process. Its body runs on
// a pooled coroutine, and only while the engine has switched into it.
type Proc struct {
	e          *Engine
	name       string
	fn         func(p *Proc) // the body, until it starts
	co         *coro         // bound at first dispatch, released at exit
	prev, next *Proc         // Engine.firstProc list
	done       bool
	killed     bool
	parked     bool
	sleepTimer Timer        // stale once fired; Stop on it is then a no-op
	label      prof.LabelID // proc-kind attribution label (0 when unprofiled)
}

// resumeAfter queues a dispatch of p after d. The event carries p
// itself, so Go and the park/unpark/sleep cycle schedule without a
// closure and a spawn is one allocation, the Proc.
func (p *Proc) resumeAfter(d time.Duration) Timer {
	return p.e.ScheduleArgL(d, p.label, dispatchProc, p)
}

func dispatchProc(arg any) {
	p := arg.(*Proc)
	p.e.dispatch(p)
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

type killedErr struct{ name string }

func (k killedErr) Error() string { return "sim: process " + k.name + " killed at shutdown" }

// Go spawns a new process running fn. The process becomes runnable at
// the current virtual time; it first executes when the engine next runs.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, fn: fn}
	p.label = e.prof.ProcLabel(name) // 0 when unprofiled (nil-safe)
	e.live++
	p.prev = e.lastProc
	if p.prev != nil {
		p.prev.next = p
	} else {
		e.firstProc = p
	}
	e.lastProc = p
	p.resumeAfter(0)
	return p
}

// exit retires a proc whose body has returned or unwound.
func (e *Engine) exit(p *Proc) {
	p.done = true
	p.co = nil
	e.live--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.firstProc = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.lastProc = p.prev
	}
	p.prev, p.next = nil, nil
}

// coro is a coroutine that runs proc bodies, one after another. The
// engine switches into it with resume and the body switches back with
// yield; neither goes through the Go scheduler, so a proc switch costs
// a fraction of a channel rendezvous and never wakes another thread.
// When a body finishes the coroutine parks itself on Engine.idle and the
// next proc to start reuses its goroutine and grown stack.
type coro struct {
	p      *Proc // the proc whose body it is running
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// coroFor returns the coroutine running p, binding an idle one (or a
// new one) the first time p is dispatched.
func (e *Engine) coroFor(p *Proc) *coro {
	if p.co != nil {
		return p.co
	}
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = new(coro)
		c.resume, c.stop = iter.Pull(c.loop)
	}
	c.p, p.co = p, c
	return c
}

// loop is the coroutine's own body: run the bound proc, go idle, and
// when resumed again there is a new proc bound. stop (from Shutdown)
// makes the idle yield report false and the goroutine exits.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run(c.p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes one proc body to its end. A kill unwinds the body with
// killedErr, which stops here. Anything else the body panics with ends
// this coroutine, and iter.Pull re-raises it from resume: on the
// goroutine driving the engine, where a test or a daemon's own recovery
// can see it. The proc's name and stack go with it, because the
// re-raise unwinds neither. (runtime.Goexit, as from t.FailNow inside a
// body, takes the same road.)
func (c *coro) run(p *Proc) {
	returned := false
	defer func() {
		r := recover()
		_, killed := r.(killedErr)
		p.e.exit(p)
		if returned || killed {
			c.p = nil
			p.e.idle = append(p.e.idle, c)
		} else if r != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	returned = true
}

// dispatch hands control to p and returns when it yields or finishes.
// It may be called from engine context or (nested) from another process.
func (e *Engine) dispatch(p *Proc) {
	if p.done {
		return
	}
	e.dispatches++
	c := e.coroFor(p)
	prev := e.current
	e.current = p
	c.resume()
	e.current = prev
}

// yieldToEngine transfers control from the running process back to
// whoever dispatched it and returns when the process is next dispatched.
func (p *Proc) yieldToEngine() {
	p.co.yield(struct{}{})
	if p.killed {
		panic(killedErr{p.name})
	}
}

// Park blocks the process until another simulation entity calls Unpark.
// Parking with no one holding a reference to the process deadlocks the
// process (but not the engine), which Run reports via Parked.
func (p *Proc) Park() {
	p.parked = true
	p.e.parked++
	p.yieldToEngine()
}

// unpark clears the parked state and queues a dispatch.
func (p *Proc) unpark() {
	p.parked = false
	p.e.parked--
	p.resumeAfter(0)
}

// Unpark makes a parked process runnable at the current virtual time.
// Unparking a process that is not parked is a no-op. May be called from
// engine or process context.
func (p *Proc) Unpark() {
	if p.parked {
		p.unpark()
	}
}

// Sleep blocks the process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) {
	p.sleepTimer = p.resumeAfter(d)
	p.yieldToEngine()
}

// Kill terminates the process: its body unwinds (defers run) the next
// time it would execute. A parked or sleeping process dies immediately;
// the current process dies in place. Killing a finished process is a
// no-op. Kill must be called from engine or process context.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	switch {
	case p.parked:
		p.unpark()
	case p.sleepTimer.Stop():
		p.resumeAfter(0)
	default:
		// Either running right now (self-kill: unwind immediately) or
		// already queued for a dispatch that will observe the flag.
		if p.e.current == p {
			panic(killedErr{p.name})
		}
	}
}

// Run processes events until none remain. Processes that are still
// parked when the event queue drains stay parked; Run returns with
// Parked reporting how many.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 {
		e.exec(e.events.pop())
	}
}

// RunUntil processes events with timestamps <= t, then advances the
// clock to t.
func (e *Engine) RunUntil(t time.Duration) {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 && e.events[0].at <= t {
		e.exec(e.events.pop())
	}
	e.now = max(e.now, t)
}

// RunFor processes events for virtual duration d from the current time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// AttachProfiler binds this engine to an execution profiler (see
// internal/prof): subsequent Schedule/Go/Run activity is attributed
// per label and per proc kind. Attach before running; attaching nil is
// a no-op. For sharded runs use ShardGroup.AttachProfiler, which also
// arms the window/stall/matrix accounting.
func (e *Engine) AttachProfiler(p *prof.Profiler) {
	if p == nil {
		return
	}
	e.prof = p.Engine(e.shardID)
}

// Prof returns the engine's per-shard profile, nil when unprofiled.
// Components intern explicit attribution labels through it at
// construction time (ProfLabel below is the nil-safe shorthand).
func (e *Engine) Prof() *prof.EngineProf { return e.prof }

// ProfLabel interns an explicit attribution label, returning 0 (the
// root label) when no profiler is attached.
func (e *Engine) ProfLabel(name string) prof.LabelID { return e.prof.Label(name) }

// EventsExecuted reports how many events this engine has run — the
// denominator of every per-label attribution and, per shard, the
// deterministic imbalance signal (same seed ⇒ same counts at any
// worker count).
func (e *Engine) EventsExecuted() uint64 { return e.execCount }

// ProcDispatches reports how many times this engine has switched into a
// process, each a coroutine switch beyond its event (BenchmarkProcSwitch).
func (e *Engine) ProcDispatches() uint64 { return e.dispatches }

// TimerPoolHits reports how many scheduled events reused a pooled
// event struct.
func (e *Engine) TimerPoolHits() uint64 {
	all, made := e.free.Draws()
	return all - made
}

// TimerPoolMisses reports how many scheduled events had to allocate.
func (e *Engine) TimerPoolMisses() uint64 {
	_, made := e.free.Draws()
	return made
}

// Audit states the event list: every event drawn is on the heap.
func (e *Engine) Audit(check Audit) { check("events", e.free.Outstanding(), len(e.events)) }

// HeapHighWater reports the maximum number of simultaneously scheduled
// events this engine has seen.
func (e *Engine) HeapHighWater() uint64 { return uint64(e.heapHiWat) }

// Shutdown kills every live process — parked, sleeping, or queued for a
// dispatch that will never run — in spawn order, then releases the idle
// coroutines, so no goroutine outlives the simulation. Call at the end
// of a simulation (tests use it via defer). Must not be called while Run
// is executing.
func (e *Engine) Shutdown() {
	for p := e.firstProc; p != nil; p = e.firstProc {
		p.killed = true
		if p.parked {
			p.parked = false
			e.parked--
		}
		p.sleepTimer.Stop()
		// Every live proc is suspended in a yield (or has not started),
		// so a direct dispatch unwinds it via the kill panic. One that
		// had not started runs to its first yield and dies on the next
		// pass.
		e.dispatch(p)
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
}

// Close is Shutdown under the name the rest of the codebase expects
// for resource teardown; a standalone engine and a shard both release
// their coroutines through it.
func (e *Engine) Close() { e.Shutdown() }
