package testbed

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/obs/tseries"
	"xunet/internal/trace"
	"xunet/internal/ulib"
)

// The named scenarios: each is one function that builds a deployment,
// drives a workload and writes its deterministic artifact — same seed,
// same bytes — to w. `xunetsim trace|obs|chaos|sweep` prints them, the
// tests inspect the deployments they return, TestDetGate pins every
// artifact's SHA-256. A returned *Net is live and the caller's to
// Close; with an error it is nil.

// fixedOptions is the post-§10 configuration the scenarios run on: 80
// pseudo-device buffers, 100-entry descriptor tables.
func fixedOptions(seed uint64) Options {
	return Options{Seed: seed, DeviceBuffers: kern.FixedDeviceBuffers, FDTableSize: kern.FixedFDTableSize}
}

// flush writes a finished artifact, keeping n only if rendering and
// writing it both worked.
func flush(w io.Writer, b *bytes.Buffer, n *Net, err error) (*Net, error) {
	if err == nil {
		_, err = w.Write(b.Bytes())
	}
	if err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// TraceStorm runs the E4 mixed workload (§10: concurrent calls, every
// seventh client killed mid-setup) on the measurement testbed and
// writes the flight recorder's completed call traces: Chrome
// trace-event JSON (load it in Perfetto, or pipe it to tracecheck), or
// the span trees when text is set.
func TraceStorm(w io.Writer, seed uint64, calls int, text bool) (*Net, error) {
	n, ra, rb, err := NewTestbed(fixedOptions(seed))
	if err != nil {
		return nil, err
	}
	StartEchoServer(rb, "storm", 6000)
	n.RunUntil(time.Second)
	CallStorm(ra, rb.Stack.Addr, "storm", StormConfig{
		Count: calls, Hold: 250 * time.Millisecond, FramesPerCall: 2,
		KillEvery: 7, KillAfter: 40 * time.Millisecond,
	})
	n.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
	var b bytes.Buffer
	if text {
		for _, t := range n.TraceC.Completed() {
			b.WriteString(trace.TextTree(t))
		}
		return flush(w, &b, n, nil)
	}
	out, err := trace.ChromeJSON(n.TraceC.Completed())
	b.Write(append(out, '\n'))
	return flush(w, &b, n, err)
}

// ChaosCocktail is the standard fault mix of the chaos runs: 1%
// signaling-PVC loss, 1% IP packet loss with occasional duplication and
// delay, bursty cell loss on the trunks (Gilbert–Elliott), trunk
// flapping, and a pinch of pseudo-device indication loss. A zero seed
// derives the fault schedule from the workload seed.
func ChaosCocktail(seed uint64) *faults.Config {
	return &faults.Config{
		Seed:    seed,
		SigLoss: 0.01,
		PktLoss: 0.01, PktDup: 0.005, PktDelayProb: 0.02, PktDelayMax: 2 * time.Millisecond,
		GE:         faults.GEConfig{PGoodToBad: 0.0002, PBadToGood: 0.1, LossBad: 0.5},
		FlapMeanUp: 2 * time.Second, FlapDown: 40 * time.Millisecond,
		DevLoss: 0.001,
	}
}

// healingCounters is the fixed sighost counter set the chaos artifact
// prints for each router, so it covers the healing machinery, not just
// the faults injected.
var healingCounters = []string{
	"sighost.crashes", "sighost.recoveries",
	"sighost.recovered.bound", "sighost.recovered.wait_bind",
	"sighost.recovery.aborted_calls", "sighost.dropped_while_down",
	"sighost.rel.retransmits", "sighost.rel.acks", "sighost.rel.dups",
	"sighost.rel.stale_epoch", "sighost.rel.exhausted",
	"sighost.rel.peer_deaths",
	"sighost.calls.active", "sighost.calls.established",
}

// ChaosSoak runs the §10 call storm — a router-to-router storm plus a
// host-originated one, so both the signaling PVCs and the IP carrier
// see traffic — under the chaos cocktail, with two mid-storm crashes of
// the callee's signaling entity: one while calls are mid-setup (the
// journal must abort them with prompt client notification) and one
// while calls are bound (the journal must carry them across the
// outage). It drains fully and writes every observable artifact as one
// text fingerprint: storm outcomes, injected-fault counters, the
// healing counters on both routers, flight-recorder dump count, leak
// check and the full report. It also returns the two storms' results.
func ChaosSoak(w io.Writer, seed, chaosSeed uint64) (n *Net, storm, hostStorm *StormResult, err error) {
	return chaosSoak(w, seed, chaosSeed, nil)
}

// chaosSoak is ChaosSoak calling observe, if set, on the deployment
// before the storms start: the observation test's hook.
func chaosSoak(w io.Writer, seed, chaosSeed uint64, observe func(*Net)) (n *Net, storm, hostStorm *StormResult, err error) {
	opts := fixedOptions(seed)
	opts.Faults = ChaosCocktail(chaosSeed)
	n, ra, rb, err := NewTestbed(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	ha, err := n.AddHost("mh.h1", ra)
	if err != nil {
		n.Close()
		return nil, nil, nil, err
	}
	// Under storm load the callee's single-threaded signaling actor
	// queues requests for seconds; a tight RPC deadline would time every
	// late call out at the client before the sighost ever saw it.
	for _, l := range []*ulib.Lib{ra.Lib, rb.Lib, ha.Lib} {
		l.SetTimeouts(ulib.Timeouts{
			RPC: 10 * time.Second, Establish: 60 * time.Second,
			Attempts: 2, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second,
		})
	}
	StartEchoServer(rb, "storm", 6000)
	StartEchoServer(rb, "hstorm", 6001)
	if observe != nil {
		observe(n)
	}
	n.RunUntil(time.Second)
	n.StartTrunkFlapping(20 * time.Second)
	storm = CallStorm(ra, rb.Stack.Addr, "storm", StormConfig{
		Count: 40, Hold: time.Second, FramesPerCall: 2,
		Stagger: 20 * time.Millisecond,
	})
	hostStorm = CallStorm(ha, rb.Stack.Addr, "hstorm", StormConfig{
		Count: 15, Hold: time.Second, FramesPerCall: 2,
		Stagger: 50 * time.Millisecond, BasePort: 25000,
	})
	// First crash lands mid-setup (t=4s: the callee's backlog is all
	// unaccepted requests); the second lands in the bound burst (t=13s).
	n.E.Schedule(3*time.Second, func() { rb.Sig.CrashFor(400 * time.Millisecond) })
	n.E.Schedule(12*time.Second, func() { rb.Sig.CrashFor(400 * time.Millisecond) })
	// Drain far past the worst failure path: retransmit exhaustion
	// (~16 s at default tuning) and the 30 s bind timeout.
	n.RunUntil(n.E.Now() + 60*time.Second)

	var b bytes.Buffer
	fmt.Fprintf(&b, "storm: launched=%d ok=%d failed=%d min=%v max=%v total=%v\n",
		storm.Launched, storm.Succeeded, storm.Failed, storm.MinSetup, storm.MaxSetup, storm.TotalSetup)
	fmt.Fprintf(&b, "host-storm: launched=%d ok=%d failed=%d min=%v max=%v total=%v\n",
		hostStorm.Launched, hostStorm.Succeeded, hostStorm.Failed, hostStorm.MinSetup, hostStorm.MaxSetup, hostStorm.TotalSetup)
	fmt.Fprintf(&b, "faults:\n%s", n.Faults.Obs.Snapshot().Text())
	for _, r := range n.Routers {
		reg := r.Stack.M.Obs.Snapshot()
		for _, name := range healingCounters {
			fmt.Fprintf(&b, "%s %s %d\n", r.Stack.Addr, name, reg.Count(name))
		}
	}
	fmt.Fprintf(&b, "flight-dumps: %d\n", len(n.FlightDumps))
	fmt.Fprintf(&b, "quiesce mh.rt: %q ucb.rt: %q\n", Quiesced(ra), Quiesced(rb))
	fmt.Fprintf(&b, "report:\n%s", n.Snapshot().String())
	n, err = flush(w, &b, n, nil)
	return n, storm, hostStorm, err
}

// Sweep reproduces the §10 scaling story in one table: the call storm
// repeated across pseudo-device buffer counts and descriptor-table
// sizes, one row per configuration — the experiment behind "initially
// we configured the device with only eight buffers... our current
// implementation has eighty" and "we increased the kernel's per-process
// file descriptor table size to 100".
func Sweep(w io.Writer, buffers, fdsizes []int, calls int, hold time.Duration, seed uint64) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "call storm sweep: %d calls, %v hold, seed %d\n\n", calls, hold, seed)
	fmt.Fprintf(&b, "%8s %8s | %6s %6s | %9s %12s %12s | %s\n",
		"buffers", "fdsize", "ok", "fail", "dev-lost", "avg-setup", "max-setup", "residual state")
	for _, fd := range fdsizes {
		for _, buf := range buffers {
			n, ra, rb, err := NewTestbed(Options{Seed: seed, DeviceBuffers: buf, FDTableSize: fd})
			if err != nil {
				return err
			}
			StartEchoServer(rb, "storm", 6000)
			n.RunUntil(time.Second)
			res := CallStorm(ra, rb.Stack.Addr, "storm", StormConfig{Count: calls, Hold: hold})
			n.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)
			residual := cmp.Or(strings.Join(n.Audit(), "; "), "clean")
			fmt.Fprintf(&b, "%8d %8d | %6d %6d | %9d %12v %12v | %s\n",
				buf, fd, res.Succeeded, res.Failed, ra.Stack.M.Dev.Lost+rb.Stack.M.Dev.Lost,
				res.Avg().Round(time.Millisecond), res.MaxSetup.Round(time.Millisecond), residual)
			n.Close()
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// ObsConfig parameterizes ObsStorm: the deployment (seed, scrape
// interval and capacity), the storm — Domains > 0 moves it from the
// measurement testbed to the sharded ring, executed by Workers
// goroutines, whose count never changes a byte — and what to write.
type ObsConfig struct {
	Options
	Storm   StormConfig
	Run     time.Duration // sim time to run; covers the storm's full lifecycle
	Workers int
	// First match wins: Prof writes the execution profiler's
	// deterministic counts (Prof records nothing else, so byte-diffed
	// exports may carry it), Health the watermark rule states and health
	// events, Table the busiest trunk's utilization/queue-depth table at
	// TableEvery ticks per row — else the full time-series export, merged
	// across domains.
	Health, Table bool
	TableEvery    int
}

// E4Obs is the §10 storm as the telemetry scenario runs it: a hundred
// calls as fast as possible, each held one second — here with padded
// multi-cell frames so the trunks carry real load (a 1400-byte frame
// bursts ~30 cells at host-interface rate into the 45 Mb/s DS3) —
// scraped every 25 ms for 40 s.
func E4Obs() ObsConfig {
	c := ObsConfig{Options: fixedOptions(42), Run: 40 * time.Second, Workers: 1, TableEvery: 40}
	c.TSeries = &tseries.Config{Interval: 25 * time.Millisecond, Capacity: 2048}
	c.Storm = StormConfig{
		Count: 100, Hold: time.Second, FramesPerCall: 20, FrameBytes: 1400,
		SighostsPerDomain: 2, TrunkDelay: 2 * time.Millisecond,
	}
	return c
}

// ObsStorm runs the padded-frame E4 storm with continuous telemetry
// armed and writes the view of it c selects.
func ObsStorm(w io.Writer, c ObsConfig) (*Net, error) {
	c.Storm.CrossFrames = c.Storm.FramesPerCall
	var n *Net
	var err error
	if c.Storm.Domains > 0 {
		if n, err = NewSharded(c.Options, c.Storm); err != nil {
			return nil, err
		}
		n.G.SetWorkers(c.Workers)
		n.StartTSeries(c.Run)
		n.RunUntil(time.Second)
		ShardedStorm(n, c.Storm)
	} else {
		var ra, rb *Router
		if n, ra, rb, err = NewTestbed(c.Options); err != nil {
			return nil, err
		}
		StartEchoServer(rb, "storm", 6000)
		n.StartTSeries(c.Run)
		n.RunUntil(time.Second)
		CallStorm(ra, rb.Stack.Addr, "storm", c.Storm)
	}
	n.RunUntil(c.Run)

	var b bytes.Buffer
	switch {
	case c.Prof:
		b.WriteString(n.Prof.CountsText())
	case c.Health:
		for _, dom := range n.Domains {
			if c.Storm.Domains > 0 {
				fmt.Fprintf(&b, "== domain %d\n", dom.Index)
			}
			b.WriteString(dom.TS.HealthText())
		}
	case c.Table:
		writeTrunkTable(&b, n.mergedExport(), c.TableEvery)
	default:
		err = json.NewEncoder(&b).Encode(n.mergedExport())
	}
	return flush(w, &b, n, err)
}

// writeTrunkTable renders the busiest trunk's utilization and
// queue-depth series — the EXPERIMENTS.md load table. Each row
// aggregates `every` ticks: cells summed, utilization averaged over the
// window, queue depth at window end, high-water maxed across the
// window.
func writeTrunkTable(b *bytes.Buffer, ex tseries.Export, every int) {
	every = max(every, 1)
	// Busiest = most cells carried over the run.
	var trunk string
	var best int64
	for _, s := range ex.Series {
		if !strings.HasPrefix(s.Name, "fabric.trunk.") || !strings.HasSuffix(s.Name, ".cells") {
			continue
		}
		var total int64
		for _, p := range s.Points {
			total += p.V
		}
		if total > best {
			best, trunk = total, strings.TrimSuffix(strings.TrimPrefix(s.Name, "fabric.trunk."), ".cells")
		}
	}
	if trunk == "" {
		b.WriteString("no trunk series in export\n")
		return
	}
	find := func(name string) []tseries.Point {
		for _, s := range ex.Series {
			if s.Name == name {
				return s.Points
			}
		}
		return nil
	}
	cells := find("fabric.trunk." + trunk + ".cells")
	util := find("fabric.trunk." + trunk + ".util_bp")
	depth := find("fabric.trunk." + trunk + ".qdepth")
	fmt.Fprintf(b, "trunk %s (interval %v, %d ticks, %d ticks/row)\n", trunk, ex.Interval, ex.Ticks, every)
	fmt.Fprintf(b, "%-10s %10s %10s %8s %8s\n", "t", "cells", "util", "qdepth", "q_hiwat")
	for i := 0; i < len(cells); i += every {
		end := min(i+every, len(cells))
		var cellSum, utilSum, qh int64
		for j := i; j < end; j++ {
			cellSum += cells[j].V
			if j < len(util) {
				utilSum += util[j].V
			}
			if j < len(depth) && depth[j].Aux > qh {
				qh = depth[j].Aux
			}
		}
		var qv int64
		if end-1 < len(depth) {
			qv = depth[end-1].V
		}
		fmt.Fprintf(b, "%-10v %10d %9.2f%% %8d %8d\n",
			cells[end-1].At, cellSum, float64(utilSum)/float64(end-i)/100, qv, qh)
	}
}
