// Command xunetsim runs scenarios on the simulated Xunet. With no
// subcommand it runs a configurable call storm — on the paper's
// two-router measurement testbed or the five-site nationwide map — and
// reports the signaling, kernel, and fabric statistics the experiments
// in EXPERIMENTS.md are built from:
//
//	xunetsim -topology testbed -calls 100 -hold 1s
//	xunetsim -topology xunet -hosts 2 -calls 50 -buffers 8
//	xunetsim -chaos -chaos-seed 99 -calls 60   # storm under the fault cocktail
//	xunetsim -prof -calls 100                  # with the execution profile
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
	return func() error { return testbed.Sweep(os.Stdout, buffers, fdsizes, *calls, *hold) }
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
	fs.BoolVar(&opts.Prof, "prof", false, "arm the execution profiler and print the full profile (per-label event counts and wall time)")
	return func() error {
		cfg.KillAfter = cfg.Hold / 2
		if *chaos {
			opts.Faults = testbed.ChaosCocktail(*chaosSeed)
		}
		var n *testbed.Net
		var err error
		switch *topo {
		case "testbed":
			n, _, _, err = testbed.NewTestbed(opts)
		case "xunet":
			n, _, err = testbed.NewXunet(opts)
		default:
			err = fmt.Errorf("unknown topology %q", *topo)
		}
		if err != nil {
			return err
		}
		defer n.Close()

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
		srv := testbed.StartEchoServer(server, "storm", 6000)
		fmt.Printf("xunetsim: %s topology, %d routers, %d hosts; storm of %d calls (%v hold) from %s to %s\n",
			*topo, len(routers), len(routers)**hosts, cfg.Count, cfg.Hold, client.EndStack().Addr, server.Stack.Addr)

		n.RunUntil(time.Second)
		until := n.E.Now() + 4*n.CM.BindTimeout
		if *chaos {
			// Flap trunks for the storm's expected duration plus drain margin.
			n.StartTrunkFlapping(time.Duration(cfg.Count)*cfg.Hold + 30*time.Second)
		}
		start := time.Now()
		res := testbed.CallStorm(client, server.Stack.Addr, "storm", cfg)
		n.RunUntil(until)
		elapsed := time.Since(start)

		fmt.Printf("\ncalls: %d launched, %d established, %d failed, %d killed (%.0f sim-calls/s wall)\n",
			res.Launched, res.Succeeded, res.Failed, res.Killed, float64(res.Succeeded)/elapsed.Seconds())
		if res.Succeeded > 0 {
			fmt.Printf("setup latency: min %v avg %v max %v (paper: ≈330 ms/call)\n", res.MinSetup, res.Avg(), res.MaxSetup)
		}
		fmt.Printf("echo server: %d calls accepted, %d frames received\n\n", srv.Accepted, srv.Received)
		if n.Faults != nil {
			fmt.Printf("faults injected:\n%s\n", n.Faults.Obs.Snapshot().Text())
		}
		if n.Prof != nil {
			fmt.Printf("%s\n", n.Prof.Text())
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
