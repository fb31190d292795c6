// Command xunetsim runs scenarios on the simulated Xunet. With no
// subcommand it runs a configurable call storm — on the paper's
// two-router measurement testbed, the five-site nationwide map, or a
// sharded ring of switch domains — and reports the signaling, kernel,
// and fabric statistics the experiments in EXPERIMENTS.md are built
// from:
//
//	xunetsim -topology testbed -calls 100 -hold 1s
//	xunetsim -topology xunet -hosts 2 -calls 50 -buffers 8
//	xunetsim -chaos -chaos-seed 99 -calls 60   # storm under the fault cocktail
//	xunetsim -shards 4 -workers 4 -calls 100   # sharded parallel engine
//
// -shards N runs N switch domains in a trunk ring, one engine shard
// each, executed by -workers goroutines, which move wall-clock time and
// never a result.
//
// The subcommands print the deterministic artifacts of the scenarios in
// internal/testbed (same seed, same bytes; `make detgate` pins them):
//
//	xunetsim trace | tracecheck -v   # E4 kill storm's call traces (Chrome JSON: Perfetto loads it)
//	xunetsim obs                     # padded-frame E4 storm's time-series export
//	xunetsim obs -table              # utilization/queue-depth vs time
//	xunetsim obs -health             # which watermarks fired when
//	xunetsim obs -prof -shards 4     # execution profiler's deterministic counts
//	xunetsim chaos                   # chaos soak fingerprint
//	xunetsim sweep                   # §10 buffer × fd-table sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/obs/tseries"
	"xunet/internal/testbed"
)

// scenarios maps a subcommand to the function that declares its flags
// and returns its run.
var scenarios = map[string]func(*flag.FlagSet) func() error{
	"storm": storm, "trace": traceStorm, "obs": obsStorm, "chaos": chaosSoak, "sweep": sweep,
}

func main() {
	name, args := "storm", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	declare, ok := scenarios[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "xunetsim: unknown scenario %q (want trace, obs, chaos, sweep, or flags for the storm)\n", name)
		os.Exit(2)
	}
	fs := flag.NewFlagSet("xunetsim "+name, flag.ExitOnError)
	run := declare(fs)
	fs.Parse(args)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xunetsim:", err)
		os.Exit(1)
	}
}

// closing ends a scenario that returned its deployment live.
func closing(n *testbed.Net, err error) error {
	if err == nil {
		n.Close()
	}
	return err
}

func traceStorm(fs *flag.FlagSet) func() error {
	seed := fs.Uint64("seed", 42, "simulation seed")
	calls := fs.Int("calls", 30, "storm call count")
	text := fs.Bool("text", false, "print span trees instead of Chrome JSON")
	return func() error { return closing(testbed.TraceStorm(os.Stdout, *seed, *calls, *text)) }
}

func chaosSoak(fs *flag.FlagSet) func() error {
	seed := fs.Uint64("seed", 7, "simulation seed")
	chaosSeed := fs.Uint64("chaos-seed", 99, "fault plane seed (0 derives it from -seed)")
	return func() error {
		n, _, _, err := testbed.ChaosSoak(os.Stdout, *seed, *chaosSeed)
		return closing(n, err)
	}
}

func sweep(fs *flag.FlagSet) func() error {
	buffers, fdsizes := []int{8, 20, 40, 80}, []int{20, 100}
	fs.Func("buffers", "pseudo-device buffer counts to sweep (default 8,20,40,80)", intList(&buffers))
	fs.Func("fdsizes", "fd table sizes to sweep (default 20,100)", intList(&fdsizes))
	calls := fs.Int("calls", 100, "calls per storm")
	hold := fs.Duration("hold", time.Second, "per-call hold")
	seed := fs.Uint64("seed", 1, "simulation seed")
	return func() error { return testbed.Sweep(os.Stdout, buffers, fdsizes, *calls, *hold, *seed) }
}

// intList parses a comma-separated flag value into dst.
func intList(dst *[]int) func(string) error {
	return func(s string) error {
		*dst = nil
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			*dst = append(*dst, v)
		}
		return nil
	}
}

func obsStorm(fs *flag.FlagSet) func() error {
	c := testbed.E4Obs()
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "simulation seed")
	fs.IntVar(&c.Storm.Count, "calls", c.Storm.Count, "storm call count (the paper's hundred)")
	fs.IntVar(&c.Storm.FramesPerCall, "frames", c.Storm.FramesPerCall, "data frames per call")
	fs.IntVar(&c.Storm.FrameBytes, "frame-bytes", c.Storm.FrameBytes, "data frame size (a ~30-cell AAL5 frame)")
	fs.DurationVar(&c.Run, "run", c.Run, "sim time to run (covers the storm's full lifecycle)")
	fs.DurationVar(&c.TSeries.Interval, "interval", c.TSeries.Interval, "scrape tick interval")
	fs.IntVar(&c.TSeries.Capacity, "capacity", c.TSeries.Capacity, "points retained per series")
	fs.BoolVar(&c.Health, "health", false, "print watermark rule states and health events instead of the export")
	fs.BoolVar(&c.Table, "table", false, "print a utilization/queue-depth table for the busiest trunk")
	fs.IntVar(&c.TableEvery, "table-every", c.TableEvery, "aggregate the table over this many ticks per row (40 x 25ms = 1s)")
	fs.IntVar(&c.Storm.Domains, "shards", 0, "run on the sharded engine with this many switch domains (0 = classic flat testbed)")
	fs.IntVar(&c.Workers, "workers", c.Workers, "shard-window worker goroutines (sharded mode; never changes the bytes)")
	fs.IntVar(&c.Storm.SighostsPerDomain, "sighosts", c.Storm.SighostsPerDomain, "sighost routers per domain (sharded mode)")
	fs.DurationVar(&c.Storm.TrunkDelay, "trunk-delay", c.Storm.TrunkDelay, "inter-domain trunk propagation delay = conservative lookahead (sharded mode)")
	fs.BoolVar(&c.Prof, "prof", false, "arm the execution profiler and print its deterministic counts export (byte-identical at any -workers)")
	return func() error { return closing(testbed.ObsStorm(os.Stdout, c)) }
}

func storm(fs *flag.FlagSet) func() error {
	var opts testbed.Options
	var cfg testbed.StormConfig
	topo := fs.String("topology", "testbed", "testbed (2 routers, 3 hops) or xunet (5 sites)")
	hosts := fs.Int("hosts", 0, "IP-connected hosts per router")
	fs.IntVar(&cfg.Count, "calls", 100, "calls in the storm workload")
	fs.DurationVar(&cfg.Hold, "hold", time.Second, "per-call hold time")
	fs.IntVar(&cfg.FramesPerCall, "frames", 1, "data frames per call")
	fs.IntVar(&opts.DeviceBuffers, "buffers", kern.FixedDeviceBuffers, "pseudo-device message buffers (paper: 8 broken, 80 fixed)")
	fs.IntVar(&opts.FDTableSize, "fdsize", kern.FixedFDTableSize, "per-process fd table size (paper: 20 broken, 100 fixed)")
	fs.Uint64Var(&opts.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&opts.DisableCallLogging, "nolog", false, "disable per-call maintenance logging (E3 ablation)")
	fs.IntVar(&cfg.KillEvery, "kill-every", 0, "kill every k-th client mid-call (robustness)")
	fs.StringVar(&cfg.QoS, "qos", "", "per-call QoS descriptor (e.g. cbr:1000)")
	chaos := fs.Bool("chaos", false, "arm the fault-injection plane: 1% signaling loss, packet loss/dup/delay, bursty trunk cell loss, trunk flapping, device indication loss")
	chaosSeed := fs.Uint64("chaos-seed", 0, "fault plane seed (0 derives it from -seed)")
	fs.IntVar(&cfg.Domains, "shards", 0, "run on the sharded engine with this many switch domains (0 = single event loop)")
	workers := fs.Int("workers", 1, "shard-window worker goroutines (sharded mode)")
	fs.IntVar(&cfg.SighostsPerDomain, "sighosts", 2, "sighost routers per domain (sharded mode)")
	fs.DurationVar(&cfg.TrunkDelay, "trunk-delay", 2*time.Millisecond, "inter-domain trunk delay = conservative lookahead (sharded mode)")
	fs.IntVar(&cfg.CrossFrames, "cross-frames", 8, "data frames per cross-domain carrier circuit (sharded mode)")
	// -prof arms the wall-clock half too: xunetsim's report is for humans,
	// not byte-diffing, so the stall series and hot-shard watermark rule
	// ride along.
	fs.BoolVar(&opts.ProfSeries, "prof", false, "arm the execution profiler and print the full profile (wall-time attribution, per-shard barrier-stall fractions, critical-shard ranking)")
	return func() error {
		cfg.KillAfter = cfg.Hold / 2
		if *chaos {
			opts.Faults = testbed.ChaosCocktail(*chaosSeed)
		}
		if cfg.Domains > 0 && opts.ProfSeries {
			// The stall series and the hot-shard watermark rule live in the
			// per-domain stores; arm them so the profiler's wall-clock half
			// has somewhere to land.
			opts.TSeries = &tseries.Config{}
		}
		var n *testbed.Net
		var err error
		switch {
		case cfg.Domains > 0 && *hosts > 0:
			err = fmt.Errorf("-hosts is not supported in sharded mode")
		case cfg.Domains > 0:
			n, err = testbed.NewSharded(opts, cfg)
		case *topo == "testbed":
			n, _, _, err = testbed.NewTestbed(opts)
		case *topo == "xunet":
			n, _, err = testbed.NewXunet(opts)
		default:
			err = fmt.Errorf("unknown topology %q", *topo)
		}
		if err != nil {
			return err
		}
		defer n.Close()

		var srv *testbed.EchoServer
		var launch func() *testbed.ShardedStormResult
		if cfg.Domains > 0 {
			n.G.SetWorkers(*workers)
			fmt.Printf("xunetsim: sharded %d domains x %d sighosts, lookahead %v, %d workers; storm of %d calls (%v hold)\n",
				len(n.Domains), len(n.Routers), n.G.Lookahead(), n.G.Workers(), cfg.Count, cfg.Hold)
			launch = func() *testbed.ShardedStormResult { return testbed.ShardedStorm(n, cfg) }
		} else {
			routers := n.Routers
			server := routers[len(routers)-1]
			var client testbed.Endpoint = routers[0]
			for _, r := range routers {
				for h := 0; h < *hosts; h++ {
					host, err := n.AddHost(atm.Addr(fmt.Sprintf("%s.h%d", r.Stack.Addr, h+1)), r)
					if err != nil {
						return err
					}
					if r == routers[0] && h == 0 {
						client = host
					}
				}
			}
			srv = testbed.StartEchoServer(server, "storm", 6000)
			fmt.Printf("xunetsim: %s topology, %d routers, %d hosts; storm of %d calls (%v hold) from %s to %s\n",
				*topo, len(routers), len(routers)**hosts, cfg.Count, cfg.Hold, client.EndStack().Addr, server.Stack.Addr)
			launch = func() *testbed.ShardedStormResult {
				return &testbed.ShardedStormResult{PerDomain: []*testbed.StormResult{
					testbed.CallStorm(client, server.Stack.Addr, "storm", cfg)}}
			}
		}

		n.RunUntil(time.Second)
		until := n.E.Now() + 4*n.CM.BindTimeout
		n.StartTSeries(until)
		if *chaos {
			// Flap trunks for the storm's expected duration plus drain margin.
			n.StartTrunkFlapping(time.Duration(cfg.Count)*cfg.Hold + 30*time.Second)
		}
		start := time.Now()
		res := launch()
		n.RunUntil(until)
		elapsed := time.Since(start)

		launched, established, failed, killed := res.Totals()
		fmt.Printf("\ncalls: %d launched, %d established, %d failed, %d killed (%.0f sim-calls/s wall)\n",
			launched, established, failed, killed, float64(established)/elapsed.Seconds())
		for i, r := range res.PerDomain {
			indent, note := "", " (paper: ≈330 ms/call)"
			if len(res.PerDomain) > 1 {
				fmt.Printf("  d%d: %d launched, %d established, %d failed, %d killed, %d carrier frames in\n",
					i, r.Launched, r.Succeeded, r.Failed, r.Killed, n.Domains[i].CrossDelivered)
				indent, note = "      ", ""
			}
			if r.Succeeded > 0 {
				fmt.Printf("%ssetup latency: min %v avg %v max %v%s\n", indent, r.MinSetup, r.Avg(), r.MaxSetup, note)
			}
		}
		if srv != nil {
			fmt.Printf("echo server: %d calls accepted, %d frames received\n", srv.Accepted, srv.Received)
		}
		fmt.Println()
		for _, dom := range n.Domains {
			if dom.Faults != nil {
				fmt.Printf("d%d faults injected:\n%s\n", dom.Index, dom.Faults.Obs.Snapshot().Text())
			}
		}
		if n.Prof != nil {
			fmt.Printf("%s\n", n.Prof.Text())
			for _, dom := range n.Domains {
				for _, ev := range dom.HealthEvents {
					if ev.Rule == "hot-shard-stall" {
						fmt.Printf("health d%d: %s\n", dom.Index, ev.String())
					}
				}
			}
		}
		fmt.Print(n.Snapshot())
		leaks := n.Audit()
		for _, msg := range leaks {
			fmt.Println("LEAK:", msg)
		}
		if leaks == nil {
			fmt.Println("all transient signaling state drained — robustness check passed")
		}
		return nil
	}
}
