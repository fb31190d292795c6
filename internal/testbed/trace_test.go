package testbed_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
	"xunet/internal/trace"
)

// runTracedStorm runs the E4 kill-storm scenario and returns the
// deployment with its flight recorder populated.
func runTracedStorm(t *testing.T) *testbed.Net {
	t.Helper()
	n, err := testbed.TraceStorm(io.Discard, 42, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestStormFlightDumps checks the flight recorder's auto-dump wiring:
// the E4 kill storm tears some calls down on client death, and each such
// call must leave its rendered span tree behind.
func TestStormFlightDumps(t *testing.T) {
	n := runTracedStorm(t)
	ra := n.Routers[0]
	if len(n.FlightDumps) == 0 {
		t.Fatal("kill storm produced no flight-recorder dumps")
	}
	for _, tree := range n.FlightDumps {
		if !strings.Contains(tree, "status=DEATH") &&
			!strings.Contains(tree, "status=REJECT") &&
			!strings.Contains(tree, "status=TIMEOUT") {
			t.Fatalf("dump for a non-failure status:\n%s", tree)
		}
	}
	// The collector's health counters surface on the machine registry.
	snap := ra.Stack.M.Obs.Snapshot()
	if snap.Count("trace.traces.completed") == 0 {
		t.Fatal("trace counters missing from MGMT stats surface")
	}
	if got, want := snap.Count("trace.flight.dumps"), uint64(len(n.FlightDumps)); got != want {
		t.Fatalf("trace.flight.dumps = %d, want %d", got, want)
	}
}

// TestTraceAttributionGolden is the acceptance check on the paper's
// Table 1 reproduction: for a scripted single call, the per-layer parts
// of the attribution report sum exactly to the end-to-end setup span —
// no double counting, no gaps.
func TestTraceAttributionGolden(t *testing.T) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer n.E.Shutdown()
	testbed.StartEchoServer(rb, "echo", 6000)
	n.E.RunUntil(time.Second)
	testbed.CallStorm(ra, "ucb.rt", "echo", testbed.StormConfig{
		Count: 1, Hold: 100 * time.Millisecond, FramesPerCall: 1,
	})
	n.E.RunUntil(n.E.Now() + 4*n.CM.BindTimeout)

	completed := n.TraceC.Completed()
	if len(completed) != 1 {
		t.Fatalf("expected 1 completed trace, got %d", len(completed))
	}
	tr := completed[0]
	if tr.Status != trace.StatusOK {
		t.Fatalf("call did not establish: %s", trace.TextTree(tr))
	}

	att, ok := trace.Attribute(tr)
	if !ok {
		t.Fatal("no call.setup span in the trace")
	}
	if att.Total <= 0 {
		t.Fatalf("setup total %v", att.Total)
	}
	var sum time.Duration
	names := map[string]bool{}
	for _, p := range att.Parts {
		sum += p.Dur
		names[p.Comp+"/"+p.Name] = true
	}
	if sum != att.Total || att.Unattributed != 0 {
		t.Fatalf("attribution parts sum %v != setup total %v (unattributed %v):\n%s",
			sum, att.Total, att.Unattributed, att.String())
	}
	for _, want := range []string{"sighost/process", "sighost/peer", "sighost/program"} {
		if !names[want] {
			t.Fatalf("attribution missing %s:\n%s", want, att.String())
		}
	}
	// The tree reaches every layer: daemon, socket layer, fabric hops,
	// and the kernel indication that completed the bind.
	tree := trace.TextTree(tr)
	for _, want := range []string{"sighost/", "pfxunet/frame", "xswitch/", "kern/"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("span tree missing %s spans:\n%s", want, tree)
		}
	}
}

// TestMgmtCallTraceQuery exercises the in-band query path applications
// and cmd/xunetstat use: MGMT_QUERY "calltrace" returns the rendered
// span tree plus the setup breakdown for the requested call.
func TestMgmtCallTraceQuery(t *testing.T) {
	n := runTracedStorm(t)
	ra := n.Routers[0]
	var ok *trace.Trace
	for _, tr := range n.TraceC.Completed() {
		if tr.Status == trace.StatusOK {
			ok = tr
			break
		}
	}
	if ok == nil {
		t.Fatal("storm produced no successful call")
	}
	var body string
	var qerr error
	done := make(chan struct{})
	ra.Stack.Spawn("mgmt-query", func(p *kern.Proc) {
		defer close(done)
		body, qerr = ra.Lib.Client(p).Query(signaling.MgmtCallTrace, ok.CallID, 0)
	})
	n.E.RunUntil(n.E.Now() + time.Second)
	select {
	case <-done:
	default:
		t.Fatal("mgmt query never completed")
	}
	if qerr != nil {
		t.Fatal(qerr)
	}
	for _, want := range []string{"call.setup", "setup breakdown", "sighost/peer"} {
		if !strings.Contains(body, want) {
			t.Fatalf("calltrace reply missing %q:\n%s", want, body)
		}
	}
}

// TestMgmtCallTraceIsPerOrigin: call IDs count per placing router, so
// ucb.rt's first call and mh.rt's first call are both call 1, and one
// collector holds both traces. Each router's calltrace and
// calltrace.json must answer with the call that router placed, while
// both calls are up and after both have ended.
func TestMgmtCallTraceIsPerOrigin(t *testing.T) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	testbed.StartEchoServer(ra, "echo2", 6001)
	testbed.StartEchoServer(rb, "echo", 6000)
	call := func(r *testbed.Router, start time.Duration, dest atm.Addr, service string, port uint16) {
		r.Stack.Spawn("client", func(p *kern.Proc) {
			p.SP.Sleep(start)
			conn, err := r.Lib.OpenConnection(p, dest, service, port, "", "")
			if err != nil {
				t.Error(err)
				return
			}
			sock, _ := r.Stack.PF.Socket(p)
			_ = sock.Connect(conn.VCI, conn.Cookie)
			p.SP.Sleep(time.Second)
			sock.Close()
		})
	}
	call(rb, 100*time.Millisecond, "mh.rt", "echo2", 7001)
	call(ra, 300*time.Millisecond, "ucb.rt", "echo", 7000)
	query := func(r *testbed.Router, what string) string {
		var body string
		r.Stack.Spawn("mgmt-query", func(p *kern.Proc) {
			var err error
			if body, err = r.Lib.Client(p).Query(what, 1, 0); err != nil {
				t.Error(err)
			}
		})
		n.E.RunUntil(n.E.Now() + 100*time.Millisecond)
		return body
	}
	for _, at := range []time.Duration{800 * time.Millisecond, 3 * time.Second} {
		n.E.RunUntil(at)
		for _, c := range []struct {
			r           *testbed.Router
			want, wantJ string
		}{{rb, `call 1 "echo2"`, `call 1 (echo2,`}, {ra, `call 1 "echo"`, `call 1 (echo,`}} {
			if got := query(c.r, signaling.MgmtCallTrace); !strings.Contains(got, c.want) {
				t.Errorf("at %v, %s calltrace 1 answers with another call:\n%s", at, c.r.Stack.Addr, got)
			}
			if got := query(c.r, signaling.MgmtCallTraceJSON); !strings.Contains(got, c.wantJ) {
				t.Errorf("at %v, %s calltrace.json 1 answers with another call:\n%.300s", at, c.r.Stack.Addr, got)
			}
		}
	}
}
