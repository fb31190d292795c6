// Command bench is the repository's benchmark: seven workloads over the
// simulator and the real daemon, end-to-end metrics on two named clocks
// (virtual time is the science, wall time is how fast the code runs)
// and a per-layer budget from a separate traced run.
//
//	go run ./bench                     every workload, untraced then traced
//	go run ./bench -selfcheck          the untraced suite twice, compared
//	go run ./bench -workload real_setup -seed 3 -seconds 8 -trace 0
//
// The last form is what BENCHMARK.json's driver runs; the final line of
// its standard output is one JSON object. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workloadDef names one workload. Names are fixed: later issues cite
// them.
type workloadDef struct {
	name string
	kind string // which probes its traced run includes
	why  string
	mk   func() workload
}

// Segment sizes are set so that one segment takes about 0.35 s on the
// 2-core reference box and maxSegments of them about 7 s.
var workloads = []workloadDef{
	{"sim_storm_flat", kindStorm,
		"signaling does all the work (sighost, sigmsg, ulib, kern, memnet streams, engine); the data path carries only signaling PVC cells, so a frame-path change must read no change here",
		func() workload { return newStorm("flat") }},
	{"sim_storm_sharded", kindStorm,
		"the same call cycle under sim.ShardGroup barriers on 4 domains: the only workload where window, stall and worker changes show",
		func() workload { return newStorm("sharded") }},
	{"sim_storm_chaos", kindStorm,
		"the same sighost/ulib/memnet code through its failure paths (retransmit, journal replay, crashes, flapping trunks), so a clean-path gain that costs recovery shows",
		func() workload { return newStorm("chaos") }},
	{"sim_data_bulk", kindData,
		"1400-byte frames on standing circuits: the cell path (xswitch, hobbit SAR, aal5, atm) does the work at 140 events/frame; signaling is idle",
		func() workload { return newData(1400, 1500*time.Microsecond, 2*time.Second) }},
	{"sim_data_small", kindData,
		"one-cell frames on the same rig: per-frame cost (pfxunet, protoatm, mbuf, memnet IP) dominates at 10 events/frame, so a per-cell gain reads no change here",
		func() workload { return newData(40, 200*time.Microsecond, 3*time.Second) }},
	{"real_setup", kindRealSetup,
		"the operator-facing number: one closed-loop caller setting up native-mode calls across two real daemons over loopback TCP RPC and the UDP carrier",
		func() workload { return newRealSetup(false, 1, 800) }},
	{"real_frames", kindRealFrames,
		"smallest frames on the real data path (rtnet carrier, AAL5) with no signaling at all, so setup-path work must read no change here",
		func() workload { return newRealFrames(false, false, 64, 6000) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process; the last line of output is its result (default: the whole suite)")
		seed      = flag.Uint64("seed", 1, "workload seed: feeds testbed.Options.Seed and derives the fault seed")
		segments  = flag.Int("segments", maxSegments, "timed segments per workload, at most 20")
		seconds   = flag.Float64("seconds", 0, "stop the timed run once this many seconds are spent (0 = run every segment)")
		traced    = flag.Int("trace", 0, "with -workload: 1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
		out       = flag.String("out", "", "write the JSON report here, and each traced run's spans beside it")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and fail unless the two agree")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *segments < 1 || *segments > maxSegments {
		fatalf("-segments must be between 1 and %d", maxSegments)
	}
	stop := stopRule{segments: *segments, seconds: *seconds}
	switch {
	case *name != "":
		os.Exit(runChild(*name, *seed, *traced == 1, stop, *out))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, stop))
	default:
		os.Exit(runSuite(*seed, stop, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// contractResult is the object the driver reads from the last line.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract selects what the driver wants from a result: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one. A per-layer metric the workload does not exercise reads
// 0.
func contract(r *result) contractResult {
	c := contractResult{Correct: r.Correct, Attempted: r.Ops, Failed: r.Failed, Metrics: map[string]contractValue{}}
	defs, vals := endToEnd, r.EndToEnd
	if r.Traced {
		defs, vals = perLayer, r.Layers
	}
	for _, d := range defs {
		c.Metrics[d.Name] = contractValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return c
}

// runChild runs one workload in this process. It prints every metric by
// name, then the full result as one "RESULT " line for the suite, then
// the contract's object as the last line.
func runChild(name string, seed uint64, traced bool, stop stopRule, out string) int {
	def, ok := findWorkload(name)
	if !ok {
		fatalf("unknown workload %q", name)
	}
	cfg := runConfig{seed: seed, scale: 1, traced: traced}
	if traced {
		cfg.spans = newRecorder()
		stop.segments = min(stop.segments, tracedSegments)
		// The traced segments get part of the time budget; the layer
		// probes and the untraced twin use the rest.
		stop.seconds *= 0.3
	}
	r, err := run(def, cfg, stop)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if traced && out != "" {
		if err := cfg.spans.write(out + "." + name + ".spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	printResult(os.Stdout, r)
	full, _ := json.Marshal(r)
	fmt.Printf("RESULT %s\n", full)
	last, _ := json.Marshal(contract(r))
	fmt.Printf("%s\n", last)
	if !r.Correct {
		return 1
	}
	return 0
}
