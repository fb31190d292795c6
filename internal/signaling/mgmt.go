package signaling

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"xunet/internal/sigmsg"
	"xunet/internal/trace"
)

// Management queries: the operational payoff of the user-space design
// decision (§5.1) — "Signaling state information is easily available
// and can be used by network management software." A MGMT_QUERY over
// the ordinary RPC connection returns a rendered view of the daemon's
// state; cmd/xunetsim, cmd/xunetstat and the libraries expose it.

// Management query names. The stats/trace pair is the MGMT_STATS /
// MGMT_TRACE surface of the telemetry registry: "stats" renders the full
// registry as text (first line keeps the legacy Stats %+v form), the
// ".json" variants return machine-parseable snapshots for tooling.
const (
	MgmtServices  = "services"
	MgmtCalls     = "calls"
	MgmtStats     = "stats"
	MgmtStatsJSON = "stats.json"
	MgmtTrace     = "trace"
	MgmtTraceJSON = "trace.json"
	MgmtLists     = "lists"
	// The causal-trace surface: "calltrace" renders one call's span
	// tree plus its setup-latency attribution (the call ID travels in
	// Msg.CallID), "flight" lists the flight recorder's retained
	// traces. The ".json" variants return Chrome trace-event JSON,
	// loadable in Perfetto.
	MgmtCallTrace     = "calltrace"
	MgmtCallTraceJSON = "calltrace.json"
	MgmtFlight        = "flight"
	MgmtFlightJSON    = "flight.json"
	MgmtFaults        = "faults"
	MgmtFaultsJSON    = "faults.json"
	// The continuous-telemetry surface: "tseries" renders the scraped
	// time-series store (latest samples per series; ".json" is the full
	// export with point history), "health" the watermark-rule states and
	// recent health events.
	MgmtTSeries     = "tseries"
	MgmtTSeriesJSON = "tseries.json"
	MgmtHealth      = "health"
	MgmtHealthJSON  = "health.json"
	// The execution-profiler surface (internal/prof): "prof" renders
	// the full profile (per-label event attribution, per-shard window
	// exec and stall time), "prof.json" the machine-readable snapshot,
	// "prof.flame" folded stacks for flame-graph tools.
	MgmtProf      = "prof"
	MgmtProfJSON  = "prof.json"
	MgmtProfFlame = "prof.flame"
)

// MaxMgmtReply bounds a management reply body. Bodies past the bound
// are refused with a clean error instead of being truncated silently or
// blowing the transport's frame cap (1 MiB in rtenv). A var so tests
// can lower it.
var MaxMgmtReply = 512 << 10

// MgmtTraceDefault is how many ring events a trace query returns when the
// request does not override the count (via Msg.Cookie).
const MgmtTraceDefault = 32

// handleMgmtQuery renders the requested view.
func (sh *Sighost) handleMgmtQuery(conn Conn, m sigmsg.Msg) {
	var body string
	switch m.Service {
	case MgmtServices:
		var names []string
		for name, e := range sh.services {
			names = append(names, fmt.Sprintf("%s -> %v:%d", name, e.ip, e.port))
		}
		sort.Strings(names)
		body = strings.Join(names, "\n")
	case MgmtCalls:
		var lines []string
		for key, c := range sh.calls {
			lines = append(lines, fmt.Sprintf("call=%d peer=%s origin=%v state=%s svc=%s vci=%d qos=%q",
				key.id, key.peer, key.origin, stages[c.state].name, c.service, c.localVCI, c.qosStr))
		}
		sort.Strings(lines)
		body = strings.Join(lines, "\n")
	case MgmtStats:
		// Legacy counter line first, then the whole registry: every
		// counter, gauge high-water mark and latency histogram the
		// machine registered, not just sighost's own.
		body = fmt.Sprintf("%+v\n", sh.Stats()) + sh.Obs.Snapshot().Text()
	case MgmtStatsJSON:
		body = sh.Obs.Snapshot().JSON()
	case MgmtTrace:
		var lines []string
		for _, ev := range sh.Events(traceCount(m)) {
			lines = append(lines, fmt.Sprintf("[%v] %s", ev.At, ev.Text))
		}
		body = strings.Join(lines, "\n")
	case MgmtTraceJSON:
		out, err := json.Marshal(sh.Events(traceCount(m)))
		if err != nil {
			out = []byte("[]")
		}
		body = string(out)
	case MgmtCallTrace, MgmtCallTraceJSON:
		if m.CallID == 0 {
			sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: m.Service + " requires a call ID"})
			return
		}
		t, ok := sh.TraceC.ByCall(string(sh.env.Addr()), m.CallID)
		switch {
		case m.Service == MgmtCallTraceJSON && !ok:
			body = `{"traceEvents":[],"displayTimeUnit":"ms"}`
		case m.Service == MgmtCallTraceJSON:
			out, err := trace.ChromeJSON([]*trace.Trace{t})
			if err != nil {
				out = []byte("{}")
			}
			body = string(out)
		case !ok:
			body = fmt.Sprintf("no trace for call %d (placed elsewhere, tracing off, unsampled, or evicted)", m.CallID)
		default:
			att, hasSetup := trace.Attribute(t)
			body = trace.TextTree(t)
			if hasSetup {
				body += att.String()
			}
		}
	case MgmtFlight:
		var lines []string
		for _, t := range sh.TraceC.Completed() {
			lines = append(lines, strings.TrimRight(trace.TextTree(t), "\n"))
		}
		body = strings.Join(lines, "\n")
	case MgmtFlightJSON:
		out, err := trace.ChromeJSON(sh.TraceC.Completed())
		if err != nil {
			out = []byte("{}")
		}
		body = string(out)
	case MgmtLists:
		svc, out, in, wb, vm := sh.ListSizes()
		body = fmt.Sprintf("service_list=%d outgoing_requests=%d incoming_requests=%d wait_for_bind=%d VCI_mapping=%d cookies=%d",
			svc, out, in, wb, vm, sh.CookieCount())
	default:
		if _, ok := mgmtViews[m.Service]; ok {
			body = sh.View(m.Service)
			break
		}
		if strings.HasPrefix(m.Service, "prof.") {
			// A malformed profiler view gets a pointed error naming the
			// valid ones, mirroring the calltrace error path.
			sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError,
				Reason: fmt.Sprintf("unknown prof view %q (want prof, prof.json or prof.flame)", m.Service)})
			return
		}
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError, Reason: "unknown management query " + m.Service})
		return
	}
	if len(body) > MaxMgmtReply {
		sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindError,
			Reason: fmt.Sprintf("management reply for %s too large (%d bytes > %d)", m.Service, len(body), MaxMgmtReply)})
		return
	}
	sh.sendApp(conn, sigmsg.Msg{Kind: sigmsg.KindMgmtReply, Service: m.Service, Comment: body})
}

// mgmtViews are the queries other subsystems answer, each with what it
// says while none is attached.
var mgmtViews = map[string]string{
	MgmtFaults: "fault injection disabled", MgmtFaultsJSON: "{}",
	MgmtTSeries: "time-series collection disabled", MgmtTSeriesJSON: "{}",
	MgmtHealth: "time-series collection disabled", MgmtHealthJSON: "{}",
	MgmtProf: "execution profiling disabled", MgmtProfJSON: "{}",
	MgmtProfFlame: "execution profiling disabled",
}

// SetViews attaches MGMT views: each query named answers with its
// function's text instead of its disabled default. Call it in actor
// context (through RealHost.Do on a live daemon).
func (sh *Sighost) SetViews(views map[string]func() string) {
	for name, fn := range views {
		if _, ok := mgmtViews[name]; !ok {
			panic("signaling: no MGMT view " + name)
		}
		sh.views[name] = fn
	}
}

// View renders one MGMT view: the attached source's text, or the
// view's disabled default.
func (sh *Sighost) View(name string) string {
	if fn := sh.views[name]; fn != nil {
		return fn()
	}
	return mgmtViews[name]
}

// traceCount extracts the requested event count from a trace query: the
// Cookie field doubles as the count (it is meaningless for mgmt queries),
// zero meaning MgmtTraceDefault.
func traceCount(m sigmsg.Msg) int {
	if m.Cookie > 0 {
		return int(m.Cookie)
	}
	return MgmtTraceDefault
}
