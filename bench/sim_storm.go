package main

import (
	"fmt"
	"runtime"
	"time"

	"xunet/internal/faults"
	"xunet/internal/testbed"
	"xunet/internal/ulib"
)

// stormWorkload is the §10 call storm in its three settings. Each
// segment is a fixed number of storms; each storm launches callsPer
// concurrent open-use-close cycles on every (client, server) pair and
// runs the simulation for gap of virtual time, which is long enough
// for every call to finish.
//
// Every timed segment runs on a testbed of its own, built and warmed
// outside the timed interval. The program forces this: each originated
// call leaves two half-closed IPC streams and one ephemeral port behind
// on the caller's node (README, "Port exhaustion"), so a long-lived
// testbed livelocks after 55 536 calls, and well before that its
// growing heap makes collector cycles, not the call path, decide a
// segment's time.
type stormWorkload struct {
	simRig
	kind     string // "flat", "sharded", "chaos", or "flat-armed" (heal-overhead probe)
	storms   int    // per segment
	callsPer int    // per storm, per pair
	gap      time.Duration
	storm    testbed.StormConfig
	opts     testbed.Options
	pairs    []stormPair
	sharded  *testbed.ShardedNet
	net      *testbed.Net
	workers  int // sharded: window parallelism (0 = shardWorkers())
	gen      int // testbeds built so far
	n        int // storms launched on the current testbed

	launched, established, hung int
	stale                       int // list entries and cookies still held after a chaos drain
	leaks                       []string
}

type stormPair struct {
	client *testbed.Router
	server *testbed.Router
}

// warmStorms is how many untimed storms fill a new testbed's pools.
const warmStorms = 10

// chaosFaults is the cmd/chaosgen fault cocktail. Seed stays zero so
// the testbed derives the fault seed from the testbed's seed.
func chaosFaults() *faults.Config {
	return &faults.Config{
		SigLoss: 0.01,
		PktLoss: 0.01, PktDup: 0.005, PktDelayProb: 0.02, PktDelayMax: 2 * time.Millisecond,
		GE:         faults.GEConfig{PGoodToBad: 0.0002, PBadToGood: 0.1, LossBad: 0.5},
		FlapMeanUp: 2 * time.Second, FlapDown: 40 * time.Millisecond,
		DevLoss: 0.001,
	}
}

// shardedTopology is the sim_storm_sharded deployment: 4 domains of 2
// sighosts, 2 ms trunks.
var shardedTopology = testbed.StormConfig{Domains: 4, SighostsPerDomain: 2, TrunkDelay: 2 * time.Millisecond}

// shardWorkers is the window parallelism of sim_storm_sharded.
func shardWorkers() int { return min(4, runtime.GOMAXPROCS(0)) }

func newStorm(kind string) *stormWorkload { return &stormWorkload{kind: kind} }

func (w *stormWorkload) build(cfg runConfig) error {
	w.cfg = cfg
	w.opts = cfg.options()
	switch w.kind {
	case "flat", "flat-armed":
		w.storms, w.callsPer, w.gap = cfg.scaled(200), 10, 30*time.Second
		w.storm = testbed.StormConfig{Hold: 50 * time.Millisecond}
	case "sharded":
		w.storms, w.callsPer, w.gap = cfg.scaled(40), 10, 5*time.Second
		w.storm = testbed.StormConfig{Hold: 50 * time.Millisecond, FramesPerCall: 2}
	case "chaos":
		w.storms, w.callsPer, w.gap = cfg.scaled(60), 20, 150*time.Second
		w.storm = testbed.StormConfig{Hold: 200 * time.Millisecond, FramesPerCall: 2, Stagger: 5 * time.Millisecond}
		w.opts.Faults = chaosFaults()
	}
	if w.kind == "flat-armed" {
		// The fault plane armed at zero probabilities: reliable channel,
		// journal and keepalives on, nothing injected.
		w.opts.Faults = &faults.Config{}
	}
	w.storm.Count = w.callsPer
	return w.assemble()
}

// assemble builds the next testbed, starts its servers and runs the
// warm-up storms. Each testbed gets a seed of its own, derived from the
// run's, so chaos segments draw different fault schedules.
func (w *stormWorkload) assemble() error {
	opts := w.opts
	opts.Seed = w.cfg.seed*1000 + uint64(w.gen)
	w.gen++
	w.n = 0
	w.pairs = nil
	if w.kind == "sharded" {
		sn, err := testbed.NewSharded(opts, shardedTopology)
		if err != nil {
			return err
		}
		if w.workers == 0 {
			w.workers = shardWorkers()
		}
		sn.G.SetWorkers(w.workers)
		w.sharded, w.fabric, w.prof = sn, sn.Fabric, sn.Prof
		w.now, w.runUntil, w.engineSpan = sn.G.Now, sn.RunUntil, "ShardGroup.RunUntil"
		for _, dom := range sn.Domains {
			w.engines = append(w.engines, dom.E)
			w.routers = append(w.routers, dom.Routers...)
			w.pairs = append(w.pairs, stormPair{client: dom.Routers[len(dom.Routers)-1], server: dom.Routers[0]})
		}
	} else {
		n, ra, rb, err := testbed.NewTestbed(opts)
		if err != nil {
			return err
		}
		w.net, w.fabric, w.prof = n, n.Fabric, n.Prof
		w.now, w.runUntil, w.engineSpan = n.E.Now, n.E.RunUntil, "Engine.RunUntil"
		w.engines = append(w.engines, n.E)
		w.routers = []*testbed.Router{ra, rb}
		w.pairs = []stormPair{{client: ra, server: rb}}
		if w.kind == "chaos" {
			for _, r := range w.routers {
				r.Lib.SetTimeouts(ulib.Timeouts{
					RPC: 10 * time.Second, Establish: 60 * time.Second,
					Attempts: 2, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second,
				})
			}
		}
	}
	// Servers start once per testbed, here: testbed.ShardedStorm
	// restarts them on every call, which times the harness (README).
	for _, p := range w.pairs {
		testbed.StartEchoServer(p.server, "storm", echoPort)
	}
	w.runUntil(time.Second)
	if w.kind == "chaos" {
		w.net.StartTrunkFlapping(1 << 60)
	}
	for i := 0; i < warmStorms; i++ {
		w.launch()
		w.runUntil(w.now() + w.gap)
	}
	return nil
}

// launch starts one storm on every pair and, under chaos, schedules
// the signaling-entity crash that hits every fourth.
func (w *stormWorkload) launch() []*testbed.StormResult {
	cfg := w.storm
	cfg.BasePort = notifyPort(w.n)
	results := make([]*testbed.StormResult, len(w.pairs))
	for k, p := range w.pairs {
		results[k] = testbed.CallStorm(p.client, p.server.Stack.Addr, "storm", cfg)
	}
	if w.kind == "chaos" && w.n%4 == 3 {
		server := w.pairs[0].server
		w.net.E.Schedule(150*time.Millisecond, func() { server.Sig.CrashFor(400 * time.Millisecond) })
	}
	w.n++
	return results
}

func (w *stormWorkload) refresh() error {
	w.audit()
	w.fold()
	w.close()
	if err := w.assemble(); err != nil {
		return err
	}
	w.rebase()
	return nil
}

func (w *stormWorkload) segment() (ops, failed int, err error) {
	for i := 0; i < w.storms; i++ {
		w.cfg.spans.nextOp()
		sp := w.cfg.spans.begin("CallStorm", 0)
		results := w.launch()
		w.cfg.spans.end(sp)
		w.advance(w.gap)
		for _, res := range results {
			ops += w.callsPer
			w.launched += w.callsPer
			w.established += res.Succeeded
			// A call that neither established nor failed with an error
			// inside the storm's window hung.
			hung := w.callsPer - res.Succeeded - res.Failed
			w.hung += hung
			failed += hung
			if w.kind != "chaos" {
				failed += res.Failed
			}
		}
	}
	return ops, failed, nil
}

// audit checks the testbed the run is about to leave behind: every
// router's transient signaling state drained, and no cell dropped on a
// clean workload. Under chaos what is still held after the drain is
// counted, not failed: a close indication the fault plane drops at
// /dev/anand leaves its call's VCI mapping behind until the next
// peer-death cascade (README, "Lost close indications").
func (w *stormWorkload) audit() {
	if w.kind == "chaos" {
		// Retransmissions, bind timers and recovery run out first.
		w.runUntil(w.now() + 150*time.Second)
		for _, r := range w.routers {
			_, out, in, wb, vm := r.Sig.SH.ListSizes()
			w.stale += out + in + wb + vm + r.Sig.SH.CookieCount()
		}
		return
	}
	w.leaks = append(w.leaks, w.quiesce()...)
	if d := w.deltas()["fabric.cells.dropped"]; d > 0 {
		w.leaks = append(w.leaks, fmt.Sprintf("fabric dropped %.0f cells on a clean workload", d))
	}
}

func (w *stormWorkload) report(r *result) {
	if h := w.setupHist("sighost.setup.total"); h != nil {
		r.Layers["virt.setup_p99_ms"] = ms(h.P99)
	}
	r.Layers["virt.established_ratio"] = float64(w.established) / float64(w.launched)
	r.Layers["storm.hung_calls"] = float64(w.hung)
	r.Layers["storm.stale_entries"] = float64(w.stale)
	w.reportLayers(r)
}

func (w *stormWorkload) mark() {
	w.simRig.mark()
	w.launched, w.established, w.hung, w.stale, w.leaks = 0, 0, 0, 0, nil
}

func (w *stormWorkload) finish() []string {
	w.audit()
	return w.leaks
}

func (w *stormWorkload) close() {
	if w.sharded != nil {
		w.sharded.Close()
		w.sharded = nil
	}
	if w.net != nil {
		w.net.E.Shutdown()
		w.net = nil
	}
}
