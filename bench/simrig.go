package main

import (
	"strings"
	"time"

	"xunet/internal/cost"
	"xunet/internal/kern"
	"xunet/internal/obs"
	"xunet/internal/prof"
	"xunet/internal/sim"
	"xunet/internal/testbed"
	"xunet/internal/xswitch"
)

// simRig is what every simulated workload shares: the engines, the
// machines whose registries and meters are read from outside, and the
// deltas of their counters over the timed run.
type simRig struct {
	cfg      runConfig
	engines  []*sim.Engine
	routers  []*testbed.Router
	hosts    []*testbed.Host
	fabric   *xswitch.Fabric
	prof     *prof.Profiler
	now      func() time.Duration
	runUntil func(time.Duration)
	// engineSpan names the span wrapped around runUntil in traced runs.
	engineSpan string

	// The timed run's accounting: acc holds what earlier generations of
	// the system added (a storm workload renews its testbed between
	// segments), base the current generation's counters when it was
	// marked; the run's delta is acc + (now - base).
	acc      map[string]float64
	base     map[string]float64
	engineNS int64 // wall time inside runUntil over the timed run
}

// options returns the testbed options of a run: everything observable
// off when untraced, tracing and the profiler on when traced.
func (cfg runConfig) options() testbed.Options {
	return testbed.Options{
		Seed:               cfg.seed,
		DeviceBuffers:      kern.FixedDeviceBuffers,
		FDTableSize:        kern.FixedFDTableSize,
		DisableCallLogging: true,
		DisableTracing:     !cfg.traced,
		TraceSampleEvery:   1,
		Prof:               cfg.traced,
	}
}

// notifyPort returns the first client notify port of storm i; call k
// of the storm listens on notifyPort(i)+k. memnet's ephemeral allocator
// sweeps 10000-65535, so after about ten thousand dials it collides
// with notify ports above 10000 (README, "Notify-port window"); this
// window stays inside [2000, 8400).
func notifyPort(storm int) uint16 { return uint16(2000 + (storm%200)*32) }

// echoPort is the servers' notify port, below the client window.
const echoPort = 600

// advance runs the simulation for d of virtual time, under an engine
// span when traced.
func (s *simRig) advance(d time.Duration) {
	sp := s.cfg.spans.begin(s.engineSpan, 0)
	t0 := time.Now()
	s.runUntil(s.now() + d)
	s.engineNS += time.Since(t0).Nanoseconds()
	s.cfg.spans.end(sp)
}

// counters sums every counter of every machine registry by name, plus
// the fabric's, the engines' and the instruction meters'.
func (s *simRig) counters() map[string]float64 {
	c := map[string]float64{}
	add := func(snap obs.Snapshot) {
		for _, cs := range snap.Counters {
			if strings.HasPrefix(cs.Name, "sim.") {
				continue // engine-wide; every machine repeats it
			}
			c[cs.Name] += float64(cs.Value)
		}
	}
	meter := func(m *cost.Meter) {
		for comp, n := range m.Snapshot() {
			c["instr."+comp.String()] += float64(n)
		}
	}
	add(s.fabric.Obs.Snapshot())
	for _, r := range s.routers {
		add(r.Stack.M.Obs.Snapshot())
		meter(r.Stack.M.Meter)
		if r.Sig.Anand != nil {
			c["anand.relayed"] += float64(r.Sig.Anand.Relayed)
		}
	}
	for _, h := range s.hosts {
		add(h.Stack.M.Obs.Snapshot())
		meter(h.Stack.M.Meter)
		c["anand.relayed"] += float64(h.Anand.Relayed)
	}
	for _, e := range s.engines {
		c["sim.events"] += float64(e.EventsExecuted())
		c["sim.pool_misses"] += float64(e.TimerPoolMisses())
	}
	for _, cls := range []string{"be", "vbr", "cbr"} {
		c["fabric.cells.sent"] += c["fabric.cells.sent."+cls]
		c["fabric.cells.dropped"] += c["fabric.cells.dropped."+cls]
	}
	// The profiler's buckets (traced runs): wall nanoseconds per layer
	// group, window and cross-shard post counts, per-shard window time.
	snap := s.prof.Snapshot()
	for _, sh := range snap.Shards {
		for _, l := range sh.Labels {
			c["prof.ns."+profGroup(l.Label)] += float64(l.WallNS)
		}
	}
	if g := snap.Group; g != nil {
		c["prof.windows"] = float64(g.Windows)
		for _, cell := range g.Matrix {
			c["prof.xposts"] += float64(cell.Posts)
		}
		for _, ps := range g.PerShard {
			c["prof.exec_ns"] += float64(ps.ExecNS)
			c["prof.stall_ns"] += float64(ps.StallNS)
		}
	}
	return c
}

// mark starts the timed run's accounting window.
func (s *simRig) mark() {
	s.acc = map[string]float64{}
	s.base = s.counters()
	s.engineNS = 0
}

// fold closes the current generation's accounting: what it added since
// it was marked moves into acc. The caller then replaces the system and
// calls rebase.
func (s *simRig) fold() {
	for name, v := range s.counters() {
		s.acc[name] += v - s.base[name]
	}
	s.engines, s.routers, s.hosts = nil, nil, nil
}

// rebase marks a new generation of the system inside the same timed
// run.
func (s *simRig) rebase() { s.base = s.counters() }

// deltas returns what the timed run added to every counter.
func (s *simRig) deltas() map[string]float64 {
	d := map[string]float64{}
	for name, v := range s.counters() {
		d[name] = s.acc[name] + v - s.base[name]
	}
	for name, v := range s.acc {
		if _, ok := d[name]; !ok {
			d[name] = v
		}
	}
	return d
}

// setupHist returns the named sighost histogram merged across routers
// by taking the one with the most observations (storm workloads
// originate every call at one router per domain, whose histograms are
// statistically identical).
func (s *simRig) setupHist(name string) *obs.HistSnap {
	var best *obs.HistSnap
	for _, r := range s.routers {
		if h := r.Stack.M.Obs.Snapshot().Hist(name); h != nil && (best == nil || h.Count > best.Count) {
			best = h
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportLayers writes the exact per-layer counts of the timed run:
// deltas of public registries and meters, per operation.
func (s *simRig) reportLayers(r *result) {
	ops := r.Ops
	delta := s.deltas()
	now := s.counters()
	d := func(name string) float64 { return delta[name] }
	per := func(name string) float64 { return delta[name] / float64(ops) }
	L := r.Layers
	events := d("sim.events")
	L["sim.events_per_op"] = events / float64(ops)
	L["sim.pool_misses"] = d("sim.pool_misses")
	if events > 0 {
		L["sim.wall_ns_per_event"] = float64(s.engineNS) / events
	}
	L["xswitch.cells_per_op"] = per("fabric.cells.sent")
	L["xswitch.cells_dropped"] = d("fabric.cells.dropped")
	L["hobbit.cells_per_op"] = per("hobbit.cells.in") + per("hobbit.cells.out")
	L["hobbit.sar_errors"] = d("hobbit.sar.errors")
	L["hobbit.frames_ooo"] = d("hobbit.frames.ooo")
	L["pfxunet.instr_per_frame"] = per("instr." + cost.PFXunet.String())
	L["protoatm.instr_per_frame"] = per("instr." + cost.ProtoATM.String())
	L["kern.instr_per_call"] = per("instr." + cost.Kernel.String())
	L["sighost.instr_per_call"] = per("instr." + cost.Signaling.String())
	L["pfxunet.drops_overflow"] = d("pfxunet.drops.overflow")
	L["pfxunet.drops_no_socket"] = d("pfxunet.drops.no_socket")
	L["protoatm.out_of_order"] = d("protoatm.out_of_order")
	L["protoatm.unbound"] = d("protoatm.unbound")
	L["kern.dev_posted_per_op"] = per("kern.dev.posted")
	L["kern.dev_lost"] = d("kern.dev.lost")
	L["kern.procs_spawned_per_op"] = per("kern.procs.spawned")
	L["anand.relayed_per_op"] = per("anand.relayed")
	L["sighost.msgs_app_per_call"] = per("sighost.msgs.app")
	L["sighost.msgs_kernel_per_call"] = per("sighost.msgs.kernel")
	L["sighost.msgs_peer_per_call"] = per("sighost.msgs.peer")
	L["sighost.journal.appends_per_call"] = per("sighost.journal.appends")
	L["sighost.journal.batches_per_call"] = per("sighost.journal.batches")
	if rec := now["sighost.journal.records"]; rec > 0 {
		// The registry exposes the live log's size, not bytes ever
		// written: average live record size times appends per call.
		L["sighost.journal.bytes_per_call"] = now["sighost.journal.bytes"] / rec * per("sighost.journal.appends")
	}
	L["sighost.rel.retransmits_per_call"] = per("sighost.rel.retransmits")
	L["sighost.rel.dups"] = d("sighost.rel.dups")
	L["sighost.rel.exhausted"] = d("sighost.rel.exhausted")
	L["sighost.recovery.aborted_calls"] = d("sighost.recovery.aborted_calls")
	L["sighost.crashes"] = d("sighost.crashes")
	for metric, hist := range map[string]string{
		"sighost.virt_setup_p50_ms":         "sighost.setup.total",
		"sighost.virt_setup_peer_p50_ms":    "sighost.setup.peer",
		"sighost.virt_setup_process_p50_ms": "sighost.setup.process",
	} {
		if h := s.setupHist(hist); h != nil {
			L[metric] = ms(h.P50)
		}
	}
	if s.prof != nil {
		s.reportProf(r, ops, delta)
	}
}

// reportProf writes the profiler-derived shares of the traced run and
// records the label buckets as spans beneath one "engine.profile" span,
// so the span file carries the same attribution. Shares are of the time
// the engine spent executing: the wall time inside RunUntil for a flat
// engine, the sum of the shards' window execution time for a sharded
// one (where windows overlap on several workers).
func (s *simRig) reportProf(r *result, ops int, delta map[string]float64) {
	denom := float64(s.engineNS)
	_, sharded := delta["prof.windows"]
	if sharded {
		denom = delta["prof.exec_ns"]
	}
	share := map[string]float64{}
	var attributed float64
	for name, ns := range delta {
		if g, ok := strings.CutPrefix(name, "prof.ns."); ok {
			share[g] = ns
			attributed += ns
		}
	}
	L := r.Layers
	if denom > 0 {
		pct := func(ns float64) float64 { return 100 * ns / denom }
		L["xswitch.prof_share_pct"] = pct(share["xswitch"])
		L["sighost.prof_share_pct"] = pct(share["sighost"])
		L["app.prof_share_pct"] = pct(share["app"])
		L["sim.prof_unattributed_pct"] = pct(denom - attributed)
	}
	if sp := s.cfg.spans; sp != nil {
		root := sp.begin("engine.profile", 0)
		sp.spans[root-1].End = sp.spans[root-1].Start + int64(denom)
		for _, g := range sortedNames(share) {
			sp.add("prof."+g, root, time.Duration(share[g]))
		}
	}
	if sharded {
		L["sim.shard.windows_per_op"] = delta["prof.windows"] / float64(ops)
		L["sim.shard.xposts_per_op"] = delta["prof.xposts"] / float64(ops)
		if busy := delta["prof.exec_ns"] + delta["prof.stall_ns"]; busy > 0 {
			L["sim.shard.stall_pct"] = 100 * delta["prof.stall_ns"] / busy
		}
	}
}

// profGroup folds a profiler label into the layer rows the report
// prints.
func profGroup(label string) string {
	switch {
	case strings.HasPrefix(label, "xswitch."):
		return "xswitch"
	case strings.HasPrefix(label, "proc.sighost"), strings.HasPrefix(label, "sighost."):
		return "sighost"
	case strings.HasPrefix(label, "proc.storm-client"), strings.HasPrefix(label, "proc.echo-"),
		strings.HasPrefix(label, "proc.bench-"):
		return "app"
	case strings.HasPrefix(label, "memnet."):
		return "memnet"
	case strings.HasPrefix(label, "proc."):
		return "proc.other"
	}
	return "other"
}

// quiesce returns what every router still holds after the run.
func (s *simRig) quiesce() []string {
	var leaks []string
	for _, r := range s.routers {
		if msg := testbed.Quiesced(r); msg != "" {
			leaks = append(leaks, msg)
		}
	}
	return leaks
}
