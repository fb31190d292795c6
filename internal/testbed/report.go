package testbed

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"xunet/internal/obs"
	"xunet/internal/qos"
)

// Report gathers every counter the experiments read into one renderable
// snapshot. It is assembled entirely from the telemetry registries — the
// fabric's and each router machine's — rather than by copying component
// fields one by one: whatever a component registers shows up here (and in
// the mgmt "stats" view) without touching this file. cmd/xunetsim prints
// it; tests use the derived fields directly.
type Report struct {
	Routers []RouterReport
	// Fabric totals, from the fabric registry.
	Fabric                  obs.Snapshot
	CellsSent, CellsDropped uint64
	PerClassSent            [3]uint64
	PerClassDropped         [3]uint64
	ActiveVCs               int
}

// RouterReport is one router's slice of the report: the machine's full
// registry snapshot plus named fields derived from it for test assertions.
type RouterReport struct {
	Addr string
	// Obs is the machine registry snapshot everything below derives from.
	Obs obs.Snapshot
	// The five lists of §7.3 plus the cookie table.
	Services, Outgoing, Incoming, WaitBind, VCIMap, Cookies int
	// Pseudo-device accounting.
	DevPosted, DevLost uint64
	// Encapsulation layer.
	Switched, ReEncapsulated, OutOfOrder uint64
	// Signaling stats summary.
	Established, Torn, Failed, AuthFailures, BindTimeouts uint64
	// Call-setup latency (origin side), from sighost.setup.total.
	SetupP50, SetupP99 time.Duration
	SetupCount         uint64
}

var classNames = [3]string{qos.BestEffort: "be", qos.VBR: "vbr", qos.CBR: "cbr"}

// Snapshot collects a report from any deployment, routers sorted by
// address. It must run while the sim is paused (between RunUntil calls)
// or after shutdown, since read-through metrics sample live component
// state.
func (n *Net) Snapshot() Report {
	var r Report
	r.Fabric = n.Fabric.Obs.Snapshot()
	for cls := 0; cls < 3; cls++ {
		r.PerClassSent[cls] = r.Fabric.Count("fabric.cells.sent." + classNames[cls])
		r.PerClassDropped[cls] = r.Fabric.Count("fabric.cells.dropped." + classNames[cls])
		r.CellsSent += r.PerClassSent[cls]
		r.CellsDropped += r.PerClassDropped[cls]
	}
	r.ActiveVCs = int(r.Fabric.Count("fabric.vcs.active"))
	var routers []*Router
	for _, dom := range n.Domains {
		routers = append(routers, dom.Routers...)
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i].Stack.Addr < routers[j].Stack.Addr })
	for _, router := range routers {
		snap := router.Stack.M.Obs.Snapshot()
		rr := RouterReport{
			Addr:           string(router.Stack.Addr),
			Obs:            snap,
			Services:       int(snap.Count("sighost.list.services")),
			Outgoing:       int(snap.Count("sighost.list.outgoing")),
			Incoming:       int(snap.Count("sighost.list.incoming")),
			WaitBind:       int(snap.Count("sighost.list.wait_bind")),
			VCIMap:         int(snap.Count("sighost.list.vci_map")),
			Cookies:        int(snap.Count("sighost.cookies")),
			DevPosted:      snap.Count("kern.dev.posted"),
			DevLost:        snap.Count("kern.dev.lost"),
			Switched:       snap.Count("protoatm.switched"),
			ReEncapsulated: snap.Count("protoatm.reencapsulated"),
			OutOfOrder:     snap.Count("protoatm.out_of_order"),
			Established:    snap.Count("sighost.calls.established"),
			Torn:           snap.Count("sighost.calls.torn"),
			Failed:         snap.Count("sighost.calls.failed"),
			AuthFailures:   snap.Count("sighost.auth_failures"),
			BindTimeouts:   snap.Count("sighost.bind_timeouts"),
		}
		if h := snap.Hist("sighost.setup.total"); h != nil {
			rr.SetupP50, rr.SetupP99, rr.SetupCount = h.P50, h.P99, h.Count
		}
		r.Routers = append(r.Routers, rr)
	}
	return r
}

// String renders the report as aligned tables.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: %d cells switched, %d dropped, %d VCs active\n",
		r.CellsSent, r.CellsDropped, r.ActiveVCs)
	fmt.Fprintf(&b, "per class (sent/dropped): cbr %d/%d  vbr %d/%d  besteffort %d/%d\n",
		r.PerClassSent[qos.CBR], r.PerClassDropped[qos.CBR],
		r.PerClassSent[qos.VBR], r.PerClassDropped[qos.VBR],
		r.PerClassSent[qos.BestEffort], r.PerClassDropped[qos.BestEffort])
	fmt.Fprintf(&b, "%-12s %5s %4s %4s %5s %4s %7s | %8s %7s | %6s %5s %5s %5s %5s\n",
		"router", "svcs", "out", "in", "bind", "vci", "cookies",
		"dev-post", "dev-lost", "estab", "torn", "fail", "auth", "btmo")
	for _, rr := range r.Routers {
		fmt.Fprintf(&b, "%-12s %5d %4d %4d %5d %4d %7d | %8d %7d | %6d %5d %5d %5d %5d\n",
			rr.Addr, rr.Services, rr.Outgoing, rr.Incoming, rr.WaitBind, rr.VCIMap, rr.Cookies,
			rr.DevPosted, rr.DevLost,
			rr.Established, rr.Torn, rr.Failed, rr.AuthFailures, rr.BindTimeouts)
	}
	for _, rr := range r.Routers {
		if rr.SetupCount > 0 {
			fmt.Fprintf(&b, "%-12s setup latency: %d calls, p50 %v, p99 %v\n",
				rr.Addr, rr.SetupCount, rr.SetupP50, rr.SetupP99)
		}
	}
	return b.String()
}
