package main

import (
	"encoding/json"
	"strings"
)

// metricDef describes one metric of BENCHMARK.json. Bound is the share
// of the parent's median by which an end-to-end metric may worsen
// before a change is a regression; per-layer metrics have none. Exact
// marks a count that must repeat to the digit for one seed and segment
// count, which -selfcheck enforces.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system sees, on every workload. The
// wall-clock bounds are wide because the reference box is a shared
// 2-core VM: README records the spreads they were set from.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
}

// perLayer is the per-layer budget, from the traced run. The units of
// time say which clock: ns/us are wall, ms under virt_/virt. is virtual.
var perLayer = []metricDef{
	// The workload-specific end-to-end numbers. The contract wants
	// every end-to-end metric from every workload, and these apply to
	// some only, so they live here; -selfcheck still bounds them.
	{Name: "virt.setup_p99_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "virt.established_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "virt.goodput_mbps", Unit: "Mb/s", Better: "higher", Exact: true},
	{Name: "rtclient.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtclient.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "rtclient.open_p999_us", Unit: "us", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "storm.hung_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "storm.stale_entries", Unit: "count", Better: "lower", Exact: true},

	{Name: "calib.sim_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "floor.tcp_rpc_us", Unit: "us", Better: "lower"},
	{Name: "floor.udp_rtt_us", Unit: "us", Better: "lower"},

	{Name: "sim.events_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.wall_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.proc_switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.pool_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.shard.speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.shard.stall_pct", Unit: "%", Better: "lower"},
	{Name: "sim.shard.windows_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.shard.xposts_per_op", Unit: "count", Better: "lower", Exact: true},

	{Name: "xswitch.ns_per_cell_hop", Unit: "ns", Better: "lower"},
	{Name: "xswitch.cells_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "xswitch.cells_dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "xswitch.prof_share_pct", Unit: "%", Better: "lower"},
	{Name: "xswitch.vc_setup_release_ns", Unit: "ns", Better: "lower"},

	{Name: "hobbit.sar_ns_per_frame_1400", Unit: "ns", Better: "lower"},
	{Name: "hobbit.cells_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "hobbit.sar_errors", Unit: "count", Better: "lower", Exact: true},
	{Name: "hobbit.frames_ooo", Unit: "count", Better: "lower", Exact: true},
	{Name: "aal5.segment_reasm_ns_1400", Unit: "ns", Better: "lower"},
	{Name: "aal5.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "atm.cell_codec_ns", Unit: "ns", Better: "lower"},

	{Name: "mbuf.from_bytes_ns_1400", Unit: "ns", Better: "lower"},
	{Name: "mbuf.prepend_ns", Unit: "ns", Better: "lower"},
	{Name: "mbuf.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "pfxunet.instr_per_frame", Unit: "count", Better: "lower", Exact: true},
	{Name: "protoatm.instr_per_frame", Unit: "count", Better: "lower", Exact: true},
	{Name: "kern.instr_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "pfxunet.drops_overflow", Unit: "count", Better: "lower", Exact: true},
	{Name: "pfxunet.drops_no_socket", Unit: "count", Better: "lower", Exact: true},
	{Name: "protoatm.out_of_order", Unit: "count", Better: "lower", Exact: true},
	{Name: "protoatm.unbound", Unit: "count", Better: "lower", Exact: true},
	{Name: "protoatm.reuse_lost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "kern.dev_posted_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "kern.dev_lost", Unit: "count", Better: "lower", Exact: true},
	{Name: "kern.procs_spawned_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "anand.relayed_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "memnet.stream_msg_ns", Unit: "ns", Better: "lower"},

	{Name: "sigmsg.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "sigmsg.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "sigmsg.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "sighost.msgs_app_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.msgs_kernel_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.msgs_peer_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.instr_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.virt_setup_p50_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "sighost.virt_setup_peer_p50_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "sighost.virt_setup_process_p50_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "sighost.prof_share_pct", Unit: "%", Better: "lower"},
	{Name: "app.prof_share_pct", Unit: "%", Better: "lower"},
	{Name: "sim.prof_unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "sighost.journal.appends_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.journal.batches_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.journal.bytes_per_call", Unit: "B", Better: "lower", Exact: true},
	{Name: "sighost.rel.retransmits_per_call", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.rel.dups", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.rel.exhausted", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.recovery.aborted_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.crashes", Unit: "count", Better: "lower", Exact: true},
	{Name: "sighost.heal_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "rtnet.ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "rtnet.syscalls_per_frame", Unit: "count", Better: "lower"},
	{Name: "rtnet.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "rtnet.aal5_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "rtnet.frames_per_s_1400", Unit: "1/s", Better: "higher"},
	{Name: "rtnet.frames_per_s_8192", Unit: "1/s", Better: "higher"},
	{Name: "rtnet.fallback_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rtnet.rx_bad_frames", Unit: "count", Better: "lower", Exact: true},

	{Name: "rtclient.accept_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtclient.export_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtenv.grant_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtenv.kernel_connect_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtenv.kernel_bind_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtenv.kernel_close_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtenv.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "rtenv.carrier_frames_per_setup", Unit: "count", Better: "lower", Exact: true},
	{Name: "rtenv.setup_floor_multiple", Unit: "ratio", Better: "lower"},
	{Name: "rtenv.setups_per_s_c2", Unit: "1/s", Better: "higher"},
	{Name: "rtenv.fallback_setups_per_s", Unit: "1/s", Better: "higher"},

	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.sampled_record_ns", Unit: "ns", Better: "lower"},
	{Name: "prof.enabled_event_ns", Unit: "ns", Better: "lower"},
	{Name: "tseries.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "faults.zero_prob_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	{Name: "go.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.heap_growth_b_per_op", Unit: "B", Better: "lower"},
	{Name: "go.goroutines_end", Unit: "count", Better: "lower"},
}

// selfBounds are the bounds -selfcheck holds the workload-specific
// wall-clock numbers to; they are not in the contract's list (see
// perLayer) but two runs of one commit must still agree on them.
var selfBounds = map[string]float64{
	"rtclient.open_p50_us": 0.25,
	"rtclient.open_p99_us": 0.35,
	"go.allocs_per_op":     0.02,
}

func defOf(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package;
// the smoke test fails when the committed file differs.
func benchmarkJSON(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(doc)
	return []byte(b.String())
}
