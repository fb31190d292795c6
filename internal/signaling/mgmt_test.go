package signaling_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"xunet/internal/prof"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
)

// Management queries over the real-TCP deployment (the sim-side path is
// covered in internal/ulib).

func realQuery(t *testing.T, addr, what string) (sigmsg.Msg, error) {
	t.Helper()
	return rawRPC(addr, sigmsg.Msg{Kind: sigmsg.KindMgmtQuery, Service: what})
}

func TestRealManagementQueries(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	if err := c.ExportService("mgmt-demo", 19100); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{signaling.MgmtServices, signaling.MgmtCalls, signaling.MgmtStats, signaling.MgmtLists} {
		reply, err := realQuery(t, h.ListenAddr(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if reply.Kind != sigmsg.KindMgmtReply {
			t.Fatalf("%s: reply kind %v", q, reply.Kind)
		}
		switch q {
		case signaling.MgmtServices:
			if !strings.Contains(reply.Comment, "mgmt-demo") {
				t.Errorf("services view missing registration: %q", reply.Comment)
			}
		case signaling.MgmtStats:
			if !strings.Contains(reply.Comment, "sighost.services_registered 1\n") {
				t.Errorf("stats view = %q", reply.Comment)
			}
		case signaling.MgmtLists:
			if !strings.Contains(reply.Comment, "service_list=1") {
				t.Errorf("lists view = %q", reply.Comment)
			}
		}
	}
	// Unknown query draws SIG_ERROR.
	reply, err := realQuery(t, h.ListenAddr(), "bogus")
	if err != nil || reply.Kind != sigmsg.KindError {
		t.Fatalf("bogus query: %v %v", reply.Kind, err)
	}
}

// Error paths of the management surface: malformed arguments, queries
// against disabled subsystems, and replies past the size bound must all
// come back as clean SIG_ERRORs (or explicit "disabled" text), never as
// hangs, truncation, or transport failures.
func TestMgmtErrorPaths(t *testing.T) {
	h := startReal(t)

	// calltrace without a call ID is malformed: there is nothing to look
	// up and "no trace for call 0" (or an empty Chrome trace) would mask
	// the caller's bug.
	for _, q := range []string{signaling.MgmtCallTrace, signaling.MgmtCallTraceJSON} {
		reply, err := realQuery(t, h.ListenAddr(), q)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Kind != sigmsg.KindError || !strings.Contains(reply.Reason, "requires a call ID") {
			t.Fatalf("%s without ID: kind=%v reason=%q", q, reply.Kind, reply.Reason)
		}
	}

	// The tseries/health queries answer even when collection is off —
	// with explicit disabled text, not an error and not silence.
	for q, want := range map[string]string{
		signaling.MgmtTSeries:     "time-series collection disabled",
		signaling.MgmtHealth:      "time-series collection disabled",
		signaling.MgmtTSeriesJSON: "{}",
		signaling.MgmtHealthJSON:  "{}",
	} {
		reply, err := realQuery(t, h.ListenAddr(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if reply.Kind != sigmsg.KindMgmtReply || reply.Comment != want {
			t.Fatalf("%s: kind=%v body=%q", q, reply.Kind, reply.Comment)
		}
	}
}

func TestMgmtOversizedReply(t *testing.T) {
	// Lower the bound before the actor goroutine exists and restore it
	// after Close has joined it (cleanups run LIFO), so the actor's reads
	// of the package var are ordered against both writes.
	old := signaling.MaxMgmtReply
	signaling.MaxMgmtReply = 16
	t.Cleanup(func() { signaling.MaxMgmtReply = old })
	h := startReal(t)

	// The stats view is far past 16 bytes; it must be refused whole, with
	// the query name and sizes in the reason, rather than truncated or
	// left to blow the transport's frame cap.
	reply, err := realQuery(t, h.ListenAddr(), signaling.MgmtStats)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != sigmsg.KindError || !strings.Contains(reply.Reason, "too large") ||
		!strings.Contains(reply.Reason, signaling.MgmtStats) {
		t.Fatalf("oversized reply: kind=%v reason=%q", reply.Kind, reply.Reason)
	}

	// The daemon stays usable after refusing: a reply under the bound
	// (the empty services view) still answers normally on the same
	// listener.
	reply, err = realQuery(t, h.ListenAddr(), signaling.MgmtServices)
	if err != nil || reply.Kind != sigmsg.KindMgmtReply || reply.Comment != "" {
		t.Fatalf("post-error query: kind=%v err=%v body=%q", reply.Kind, err, reply.Comment)
	}
}

// Error paths of the MGMT prof surface, mirroring the calltrace suite:
// a disabled profiler answers with explicit text (never an error, never
// silence), and a malformed prof view draws a pointed SIG_ERROR naming
// the valid ones.
func TestMgmtProfErrorPaths(t *testing.T) {
	h := startReal(t)

	// No profiler attached: the text views answer with disabled text,
	// the JSON view with an empty object.
	for q, want := range map[string]string{
		signaling.MgmtProf:      "execution profiling disabled",
		signaling.MgmtProfFlame: "execution profiling disabled",
		signaling.MgmtProfJSON:  "{}",
	} {
		reply, err := realQuery(t, h.ListenAddr(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if reply.Kind != sigmsg.KindMgmtReply || reply.Comment != want {
			t.Fatalf("%s: kind=%v body=%q", q, reply.Kind, reply.Comment)
		}
	}

	// A bogus prof view is malformed, not merely unknown: the error
	// names the valid views so the caller can fix the query.
	reply, err := realQuery(t, h.ListenAddr(), "prof.bogus")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != sigmsg.KindError || !strings.Contains(reply.Reason, "unknown prof view") ||
		!strings.Contains(reply.Reason, "prof.flame") {
		t.Fatalf("prof.bogus: kind=%v reason=%q", reply.Kind, reply.Reason)
	}

	// With a profiler attached (in actor context, so no race with the
	// handler), the views serve its exports.
	p := prof.New()
	p.Engine(0).Account(p.Engine(0).Label("proc.sighost"), 1000)
	h.Do(func() {
		h.SH.SetViews(map[string]func() string{signaling.MgmtProf: p.Text, signaling.MgmtProfJSON: p.JSON})
	})
	reply, err = realQuery(t, h.ListenAddr(), signaling.MgmtProf)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != sigmsg.KindMgmtReply || !strings.Contains(reply.Comment, "proc.sighost") {
		t.Fatalf("armed prof view: kind=%v body=%q", reply.Kind, reply.Comment)
	}
	reply, err = realQuery(t, h.ListenAddr(), signaling.MgmtProfJSON)
	if err != nil || !strings.Contains(reply.Comment, `"shards"`) {
		t.Fatalf("armed prof.json view: err=%v body=%q", err, reply.Comment)
	}
}

// An oversized prof reply must be refused whole with the query name in
// the reason — same contract as the stats view — and the daemon must
// stay usable afterwards.
func TestMgmtProfOversizedReply(t *testing.T) {
	old := signaling.MaxMgmtReply
	signaling.MaxMgmtReply = 64
	t.Cleanup(func() { signaling.MaxMgmtReply = old })
	h := startReal(t)

	big := strings.Repeat("shard 0: busy\n", 64)
	h.Do(func() { h.SH.SetViews(map[string]func() string{signaling.MgmtProf: func() string { return big }}) })
	reply, err := realQuery(t, h.ListenAddr(), signaling.MgmtProf)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != sigmsg.KindError || !strings.Contains(reply.Reason, "too large") ||
		!strings.Contains(reply.Reason, signaling.MgmtProf) {
		t.Fatalf("oversized prof reply: kind=%v reason=%q", reply.Kind, reply.Reason)
	}
	reply, err = realQuery(t, h.ListenAddr(), signaling.MgmtServices)
	if err != nil || reply.Kind != sigmsg.KindMgmtReply {
		t.Fatalf("post-error query: kind=%v err=%v", reply.Kind, err)
	}
}

func TestRealServerReject(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	srvL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer srvL.Close()
	if err := c.ExportService("refuser", uint16(srvL.Addr().(*net.TCPAddr).Port)); err != nil {
		t.Fatal(err)
	}
	go func() {
		req, err := signaling.AwaitServiceRequest(srvL)
		if err != nil {
			return
		}
		_ = req.Reject("maintenance window")
	}()
	cliL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer cliL.Close()
	_, err := c.OpenConnection("mh.rt", "refuser", cliL, uint16(cliL.Addr().(*net.TCPAddr).Port), "", "")
	if err == nil || !strings.Contains(err.Error(), "maintenance window") {
		t.Fatalf("err = %v", err)
	}
}

func TestRealCancelOutstanding(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	// A server that exports but never answers its notify port.
	srvL, _ := net.Listen("tcp", "127.0.0.1:0")
	defer srvL.Close()
	if err := c.ExportService("sleepy", uint16(srvL.Addr().(*net.TCPAddr).Port)); err != nil {
		t.Fatal(err)
	}
	// Issue the CONNECT_REQ by hand so we hold the cookie while the
	// request is pending.
	conn, err := net.Dial("tcp", h.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := signaling.WriteFrame(conn, (&sigmsg.Msg{
		Kind: sigmsg.KindConnectReq, Dest: "mh.rt", Service: "sleepy", NotifyPort: 19999,
	}).AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := signaling.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := sigmsg.Decode(raw)
	if reply.Kind != sigmsg.KindReqID {
		t.Fatalf("reply = %v", reply.Kind)
	}
	// Poll through the management interface: the query runs in actor
	// context, so it reads the lists without racing the handlers. The
	// calls view names each view's state: the origin's SETUP is out, and
	// the destination awaits its server.
	poll := func(view string, want ...string) {
		t.Helper()
		var body string
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if body, err = c.Client().Query(view, 0, 0); err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(want, func(w string) bool { return !strings.Contains(body, w) }) {
				return
			}
		}
		t.Fatalf("%s view never read %q: %q", view, want, body)
	}
	poll(signaling.MgmtCalls, "origin=true state=setup_sent", "origin=false state=wait_server")
	if err := c.Client().CancelRequest(reply.Cookie); err != nil {
		t.Fatal(err)
	}
	// State must drain.
	poll(signaling.MgmtLists, "outgoing_requests=0", "incoming_requests=0")
}

// TestQueryCountClamps asks for more trace events than the 16-bit field
// that carries the count holds: the request must read as 65 535, every
// event the ring has, and not wrap to a small count or the default.
func TestQueryCountClamps(t *testing.T) {
	h := startReal(t)
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	t.Cleanup(c.Close)
	for i := range signaling.EventRingSize {
		if err := c.ExportService(fmt.Sprintf("svc%d", i), uint16(20000+i)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(n int) int {
		t.Helper()
		body, err := c.Client().Query(signaling.MgmtTraceJSON, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		var evs []signaling.Event
		if err := json.Unmarshal([]byte(body), &evs); err != nil {
			t.Fatal(err)
		}
		return len(evs)
	}
	want := count(math.MaxUint16)
	if want != signaling.EventRingSize {
		t.Fatalf("%d events for a count of 65535, want the full ring of %d", want, signaling.EventRingSize)
	}
	for _, n := range []int{math.MaxUint16 + 1, math.MaxUint16 + 101} {
		if got := count(n); got != want {
			t.Errorf("%d events for a count of %d, want %d", got, n, want)
		}
	}
}
