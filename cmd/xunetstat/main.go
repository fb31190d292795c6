// Command xunetstat scrapes a running sighost daemon's telemetry in-band
// over the signaling RPC protocol (MGMT_QUERY "stats.json" / "trace.json")
// and renders it as aligned tables or raw JSON — netstat for the signaling
// entity.
//
//	xunetstat -sighost 127.0.0.1:3177           # tables: counters, gauges,
//	                                            # latency percentiles, trace
//	xunetstat -sighost 127.0.0.1:3177 -json     # one JSON object
//	xunetstat -sighost 127.0.0.1:3177 -events 50
//
// Two subcommands query the causal call tracer:
//
//	xunetstat trace <callid>      # one call's span tree + where its setup
//	                              # latency went, layer by layer
//	xunetstat trace -json <callid># the same as Chrome trace-event JSON
//	                              # (load in Perfetto / chrome://tracing)
//	xunetstat flight              # span trees of the last completed calls
//	xunetstat flight -json        # flight recorder as Chrome trace JSON
//
// And one queries the fault-injection plane, when one is armed:
//
//	xunetstat faults              # fault config + injection counters
//	xunetstat faults -json        # the same as one JSON object
//
// Two more query continuous telemetry (daemons started with -metrics):
//
//	xunetstat tseries             # latest sample of every scraped series
//	xunetstat tseries -json       # full export: point history, rules, events
//	xunetstat health              # watermark rule states + health events
//	xunetstat health -json        # the same as one JSON object
//
// And one queries the execution profiler, when one is armed:
//
//	xunetstat prof                # per-label event attribution,
//	                              # per-shard window exec/stall time
//	xunetstat prof -json          # the same as one JSON snapshot
//	xunetstat prof -flame         # folded stacks for flame-graph tools
//
// -json and -flame may stand before the subcommand or among its
// arguments: xunetstat -json faults is xunetstat faults -json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"xunet/internal/obs"
	"xunet/internal/signaling"
)

func main() {
	addr := flag.String("sighost", "127.0.0.1:3177", "sighost daemon TCP address")
	asJSON := flag.Bool("json", false, "emit one JSON object instead of tables")
	events := flag.Int("events", 16, "trace events to fetch (0 disables)")
	flag.Parse()

	rc := &signaling.RealClient{SighostAddr: *addr}
	defer rc.Close()
	c := rc.Client()

	if args := flag.Args(); len(args) > 0 {
		what, callID, err := viewName(args, *asJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xunetstat:", err)
			os.Exit(2)
		}
		body, err := c.Query(what, callID, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xunetstat:", err)
			os.Exit(1)
		}
		fmt.Println(body)
		return
	}
	statsBody, err := c.Query(signaling.MgmtStatsJSON, 0, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xunetstat:", err)
		os.Exit(1)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(statsBody), &snap); err != nil {
		fmt.Fprintln(os.Stderr, "xunetstat: bad stats reply:", err)
		os.Exit(1)
	}

	var trace []signaling.Event
	if *events > 0 {
		traceBody, err := c.Query(signaling.MgmtTraceJSON, 0, *events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xunetstat:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal([]byte(traceBody), &trace); err != nil {
			fmt.Fprintln(os.Stderr, "xunetstat: bad trace reply:", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		out, _ := json.MarshalIndent(struct {
			Stats obs.Snapshot      `json:"stats"`
			Trace []signaling.Event `json:"trace,omitempty"`
		}{snap, trace}, "", "  ")
		fmt.Println(string(out))
		return
	}
	render(snap, trace)
}

// viewName names the MGMT query a subcommand asks for, by MGMT's rule:
// the view's name, with ".json" under -json or ".flame" under -flame
// (which wins); "trace <id>" is the calltrace view of call id. asJSON
// is a -json given before the subcommand; -json and -flame may also
// stand among its arguments.
func viewName(args []string, asJSON bool) (what string, callID uint32, err error) {
	asFlame := false
	var rest []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			asJSON = true
		case "-flame", "--flame":
			asFlame = true
		default:
			rest = append(rest, a)
		}
	}
	if len(rest) == 0 {
		return "", 0, errors.New("usage: xunetstat [flags] [trace <callid> | flight | faults | tseries | health | prof]")
	}
	switch what = rest[0]; what {
	case "trace":
		if len(rest) < 2 {
			return "", 0, errors.New("usage: xunetstat trace [-json] <callid>")
		}
		id, err := strconv.ParseUint(rest[1], 10, 32)
		if err != nil {
			return "", 0, fmt.Errorf("bad call ID: %s", rest[1])
		}
		what, callID = signaling.MgmtCallTrace, uint32(id)
	case "flight", "faults", "tseries", "health", "prof":
	default:
		return "", 0, fmt.Errorf("unknown subcommand %s (want trace, flight, faults, tseries, health or prof)", what)
	}
	switch {
	case asFlame:
		what += ".flame"
	case asJSON:
		what += ".json"
	}
	return what, callID, nil
}

func render(snap obs.Snapshot, trace []signaling.Event) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "COUNTER\tVALUE")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "%s\t%d\n", c.Name, c.Value)
		}
		fmt.Fprintln(w)
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "GAUGE\tVALUE\tHIGH-WATER")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "%s\t%d\t%d\n", g.Name, g.Value, g.Max)
		}
		fmt.Fprintln(w)
	}
	hists := make([]obs.HistSnap, 0, len(snap.Hists))
	for _, h := range snap.Hists {
		if h.Count > 0 {
			hists = append(hists, h)
		}
	}
	if len(hists) > 0 {
		sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
		fmt.Fprintln(w, "LATENCY\tCOUNT\tP50\tP95\tP99\tMAX")
		for _, h := range hists {
			fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\n", h.Name, h.Count, h.P50, h.P95, h.P99, h.Max)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	if len(trace) > 0 {
		fmt.Println("TRACE (oldest first)")
		for _, ev := range trace {
			fmt.Printf("  %6d %12s %s\n", ev.Seq, ev.At.Round(time.Microsecond), ev.Text)
		}
	}
}
