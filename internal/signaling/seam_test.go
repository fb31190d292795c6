package signaling

// Every way a call can end, one row each, checked for the same things:
// each side journals exactly one end for each call it opened, keeps no
// list, cookie or timer entry, sends RELEASE only when the cause says
// so, notifies its client at most once with the cause's text, finishes
// the trace with the cause's status, and counts the end once.

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/sigmsg"
	"xunet/internal/trace"
)

// seam is one row's world: a client on A calls services on B.
type seam struct {
	t      *testing.T
	w      *world
	a, b   *Sighost
	ea, eb *fakeEnv
	tc     *trace.Collector
}

// connect places a call from A's client and returns the client's conn.
func (s *seam) connect(dest atm.Addr, svc string, pid uint32) *fakeConn {
	conn := &fakeConn{}
	s.a.appMsg(conn, s.ea.ip, sigmsg.Msg{Kind: sigmsg.KindConnectReq, Dest: dest, Service: svc, NotifyPort: 7000, PID: pid})
	s.w.pump()
	return conn
}

// answer has B's server accept (reject=false) or refuse the last call.
func (s *seam) answer(reject bool, reason string) {
	inc, ok := s.eb.lastMsg(sigmsg.KindIncomingConn)
	if !ok {
		s.t.Fatal("no INCOMING_CONN reached the server")
	}
	kind := sigmsg.KindAcceptConn
	if reject {
		kind = sigmsg.KindRejectConn
	}
	s.b.appMsg(&fakeConn{}, s.eb.ip, sigmsg.Msg{Kind: kind, Cookie: inc.Cookie, Reason: reason})
	s.w.pump()
}

// incoming is the cookie of the last INCOMING_CONN B's server got.
func (s *seam) incoming() uint16 {
	inc, ok := s.eb.lastMsg(sigmsg.KindIncomingConn)
	if !ok {
		s.t.Fatal("no INCOMING_CONN reached the server")
	}
	return inc.Cookie
}

// reply has B's server answer cookie with kind, leaving what B sends in
// flight.
func (s *seam) reply(kind sigmsg.Kind, cookie uint16) {
	s.b.appMsg(&fakeConn{}, s.eb.ip, sigmsg.Msg{Kind: kind, Cookie: cookie})
}

// bindClient connects A's client to the VCI it was handed.
func (s *seam) bindClient() {
	vfc, ok := s.ea.lastMsg(sigmsg.KindVCIForConn)
	if !ok {
		s.t.Fatal("no VCI_FOR_CONN reached the client")
	}
	s.a.HandleKernel(s.ea.ip, kern.KMsg{Kind: kern.MsgConnect, VCI: vfc.VCI, Cookie: vfc.Cookie})
}

type endRow struct {
	name  string
	rel   *RelConfig
	drive func(s *seam)
	// counts are A's and B's calls failed, torn, rejected and canceled.
	counts [2][4]uint64
	// releases are the RELEASEs A and B sent.
	releases [2]int
	// connFailed is the CONN_FAILED text A's client got, "" for none.
	connFailed string
	// status is A's finished trace status, "" when none finished.
	status string
}

var endRows = []endRow{
	{name: "socket closed", drive: func(s *seam) {
		cv, cc, sv, sc := openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
		bindBoth(s.w, s.a, s.b, s.ea, s.eb, cv, cc, sv, sc)
		s.a.HandleKernel(s.ea.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cv})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusOK},
	{name: "socket closed before use", drive: func(s *seam) {
		cv, _, _, _ := openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
		s.a.HandleKernel(s.ea.ip, kern.KMsg{Kind: kern.MsgClose, VCI: cv})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusOK},
	{name: "canceled by client", drive: func(s *seam) {
		conn := s.connect("b.rt", "echo", 0)
		s.a.appMsg(conn, s.ea.ip, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: conn.msgs[0].Cookie})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 1}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusCanceled},
	{name: "bind timeout", drive: func(s *seam) {
		openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
		s.w.advance(s.w.now + 10*time.Second)
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusTimeout},
	{name: "cookie authentication failed", drive: func(s *seam) {
		cv, cc, _, _ := openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
		s.a.HandleKernel(s.ea.ip, kern.KMsg{Kind: kern.MsgConnect, VCI: cv, Cookie: cc + 1})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusFailed},
	{name: "client terminated", drive: func(s *seam) {
		s.connect("b.rt", "echo", 42)
		s.a.HandleKernel(s.ea.ip, kern.KMsg{Kind: kern.MsgExit, PID: 42})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0},
		connFailed: "client terminated", status: trace.StatusDeath},
	{name: "client unreachable", drive: func(s *seam) {
		s.ea.refuse = 7000
		s.connect("b.rt", "echo", 0)
		s.answer(false, "")
	}, counts: [2][4]uint64{{1, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusDeath},
	{name: "retransmit budget exhausted", rel: &RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 3},
		drive: func(s *seam) {
			s.w.drop = true
			s.connect("b.rt", "echo", 0)
			s.w.advance(s.w.now + 10*time.Second)
		}, counts: [2][4]uint64{{1, 1, 0, 0}, {}},
		connFailed: "signaling retransmit budget exhausted", status: trace.StatusTimeout},
	{name: "peer signaling entity dead", rel: &RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 10,
		KeepaliveEvery: time.Second, KeepaliveMisses: 2},
		drive: func(s *seam) {
			cv, cc, sv, sc := openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
			bindBoth(s.w, s.a, s.b, s.ea, s.eb, cv, cc, sv, sc)
			s.w.drop = true
			s.w.advance(s.w.now + 10*time.Second)
		}, counts: [2][4]uint64{{1, 1, 0, 0}, {1, 1, 0, 0}},
		connFailed: "peer signaling entity dead", status: trace.StatusDeath},
	{name: "lost in signaling restart", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		s.a.Crash()
		s.a.Recover()
		s.w.pump()
	}, counts: [2][4]uint64{{1, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0},
		connFailed: "signaling entity restarted"},
	{name: "destination unreachable", drive: func(s *seam) {
		s.connect("c.rt", "echo", 0)
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {}},
		connFailed: "destination unreachable: no PVC to c.rt", status: trace.StatusFailed},
	{name: "admission failed", drive: func(s *seam) {
		s.ea.vcErr = errors.New("no capacity")
		s.connect("b.rt", "echo", 0)
		s.answer(false, "")
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0},
		connFailed: "network admission failed: no capacity", status: trace.StatusFailed},
	{name: "server unreachable", drive: func(s *seam) {
		s.eb.refuse = 6000
		s.connect("b.rt", "echo", 0)
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {}}, connFailed: "server unreachable", status: trace.StatusReject},
	{name: "rejected by server", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		s.answer(true, "")
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {0, 0, 1, 0}}, connFailed: "rejected by server", status: trace.StatusReject},
	{name: "server's own reason", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		s.answer(true, "maintenance window")
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {0, 0, 1, 0}}, connFailed: "maintenance window", status: trace.StatusReject},
	{name: "no such service", drive: func(s *seam) {
		s.connect("b.rt", "nosvc", 0)
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {}}, connFailed: "no such service: nosvc", status: trace.StatusReject},
	{name: "peer's socket closed before use", drive: func(s *seam) {
		_, _, sv, _ := openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
		s.b.HandleKernel(s.eb.ip, kern.KMsg{Kind: kern.MsgClose, VCI: sv})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{0, 1}, status: trace.StatusOK},
	{name: "peer lost in signaling restart", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		s.b.Crash()
		s.b.Recover()
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {1, 1, 0, 0}}, releases: [2]int{0, 1},
		connFailed: "lost in signaling restart", status: trace.StatusDeath},
	// The rows below reach the protocol's off-path cells.
	{name: "canceled after an unknown cookie", drive: func(s *seam) {
		conn := s.connect("b.rt", "echo", 0)
		cookie := conn.msgs[0].Cookie
		s.a.appMsg(conn, s.ea.ip, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: cookie + 1})
		s.a.appMsg(conn, s.ea.ip, sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: cookie})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 1}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusCanceled},
	{name: "rejected after an unknown cookie", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		srv := &fakeConn{}
		s.b.appMsg(srv, s.eb.ip, sigmsg.Msg{Kind: sigmsg.KindRejectConn, Cookie: s.incoming() + 1})
		if len(srv.msgs) != 1 || srv.msgs[0].Kind != sigmsg.KindError || srv.msgs[0].Reason != "unknown incoming cookie" {
			s.t.Errorf("a REJECT_CONN naming no call's cookie got %v, want SIG_ERROR unknown incoming cookie", srv.msgs)
		}
		if n := s.b.calls.len(); n != 1 {
			s.t.Errorf("B holds %d calls after the stray REJECT_CONN, want its one", n)
		}
		s.answer(true, "")
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {0, 0, 1, 0}}, connFailed: "rejected by server", status: trace.StatusReject},
	{name: "rejected after accepting", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		inc := s.incoming()
		s.reply(sigmsg.KindRejectConn, inc+1)
		s.reply(sigmsg.KindAcceptConn, inc)
		s.reply(sigmsg.KindRejectConn, inc)
		s.w.pump()
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {0, 0, 1, 0}}, connFailed: "rejected by server", status: trace.StatusReject},
	{name: "rejected after the client bound", drive: func(s *seam) {
		s.connect("b.rt", "echo", 0)
		inc := s.incoming()
		s.reply(sigmsg.KindAcceptConn, inc)
		s.reply(sigmsg.KindRejectConn, inc)
		s.w.deliverOne()
		s.bindClient()
		s.w.pump()
	}, counts: [2][4]uint64{{1, 0, 0, 0}, {0, 0, 1, 0}}, connFailed: "rejected by server", status: trace.StatusReject},
	{name: "cookie authentication failed once bound", drive: func(s *seam) {
		cv, cc, sv, sc := openCall(s.t, s.w, s.a, s.b, s.ea, s.eb, "echo")
		bindBoth(s.w, s.a, s.b, s.ea, s.eb, cv, cc, sv, sc)
		s.a.HandleKernel(s.ea.ip, kern.KMsg{Kind: kern.MsgConnect, VCI: cv, Cookie: cc + 1})
		s.w.pump()
	}, counts: [2][4]uint64{{0, 1, 0, 0}, {0, 1, 0, 0}}, releases: [2]int{1, 0}, status: trace.StatusFailed},
	{name: "retransmit budget exhausted after accepting", rel: &RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 3},
		drive: func(s *seam) {
			s.connect("b.rt", "echo", 0)
			s.reply(sigmsg.KindAcceptConn, s.incoming())
			s.w.drop = true
			s.w.pump()
			s.w.advance(s.w.now + 10*time.Second)
			s.w.drop = false
		}, counts: [2][4]uint64{{1, 1, 0, 0}, {1, 1, 0, 0}},
		connFailed: "signaling retransmit budget exhausted", status: trace.StatusTimeout},
	{name: "retransmit budget exhausted once bound", rel: &RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 3},
		drive: func(s *seam) {
			s.connect("b.rt", "echo", 0)
			s.reply(sigmsg.KindAcceptConn, s.incoming())
			s.w.drop = true
			s.w.pump()
			s.bindClient()
			s.w.advance(s.w.now + 10*time.Second)
			s.w.drop = false
		}, counts: [2][4]uint64{{1, 1, 0, 0}, {1, 1, 0, 0}},
		connFailed: "signaling retransmit budget exhausted", status: trace.StatusTimeout},
	{name: "peer signaling entity dead before accepting", rel: &RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 10,
		KeepaliveEvery: time.Second, KeepaliveMisses: 2},
		drive: func(s *seam) {
			s.connect("b.rt", "echo", 0)
			// A's first keepalive arms B's, so both sides watch the link.
			s.w.advance(s.w.now + 1500*time.Millisecond)
			s.w.drop = true
			s.w.advance(s.w.now + 10*time.Second)
		}, counts: [2][4]uint64{{1, 1, 0, 0}, {1, 1, 0, 0}},
		connFailed: "peer signaling entity dead", status: trace.StatusDeath},
	{name: "peer signaling entity dead after accepting", rel: &RelConfig{RTO: 100 * time.Millisecond, MaxBackoffShift: 2, MaxRetries: 10,
		KeepaliveEvery: time.Second, KeepaliveMisses: 2},
		drive: func(s *seam) {
			s.connect("b.rt", "echo", 0)
			s.reply(sigmsg.KindAcceptConn, s.incoming())
			s.w.drop = true
			s.w.pump()
			s.w.advance(s.w.now + 10*time.Second)
		}, counts: [2][4]uint64{{1, 1, 0, 0}, {1, 1, 0, 0}},
		connFailed: "peer signaling entity dead", status: trace.StatusDeath},
}

// TestEveryCauseEndsOnce drives one call to each end and checks what it
// left behind on both sighosts.
func TestEveryCauseEndsOnce(t *testing.T) {
	for _, row := range endRows {
		t.Run(row.name, func(t *testing.T) { row.run(t, func(*Sighost) {}) })
	}
}

// run drives the row's call on a fresh pair, with watch called on both
// sighosts first, and checks what the call left behind.
func (row endRow) run(t *testing.T, watch func(*Sighost)) {
	w, a, b, ea, eb := pair(t, 5*time.Second, row.rel, true)
	watch(a)
	watch(b)
	chains := []*Chains{WatchChains(a), WatchChains(b)}
	tc := trace.NewCollector(func() time.Duration { return w.now })
	tc.SetEnabled(true)
	a.TraceC, b.TraceC = tc, tc
	exportEcho(t, b, eb, "echo")
	s := &seam{t: t, w: w, a: a, b: b, ea: ea, eb: eb, tc: tc}
	row.drive(s)
	w.advance(w.now + time.Minute)

	for i, side := range []struct {
		sh  *Sighost
		env *fakeEnv
		key callKey
	}{{a, ea, callKey{peer: "b.rt", id: 1, origin: true}}, {b, eb, callKey{peer: "a.rt", id: 1}}} {
		sh, env := side.sh, side.env
		opens, ends := 0, 0
		for _, r := range sh.jr.records() {
			if r.key == side.key && r.op == jOpen {
				opens++
			}
			if r.key == side.key && r.op == jEnd {
				ends++
			}
		}
		if opens > 1 || ends != opens {
			t.Errorf("%s: journal holds %d opens and %d ends for %+v", env.addr, opens, ends, side.key)
		}
		if msg := sh.Residue(); msg != "" {
			t.Error(msg)
		}
		for _, tm := range w.timers {
			if tm.owner == env && !tm.canceled && !tm.fired {
				t.Errorf("%s: timer at %v still armed", env.addr, tm.at)
			}
		}
		if got := env.countSent(sigmsg.KindRelease); min(got, 1) != row.releases[i] {
			t.Errorf("%s: sent %d RELEASEs, want %d", env.addr, got, row.releases[i])
		}
		var failed []string
		for _, c := range env.conns {
			for _, m := range c.msgs {
				if m.Kind == sigmsg.KindConnFailed {
					failed = append(failed, m.Reason)
				}
			}
		}
		want := 0
		if i == 0 && row.connFailed != "" {
			want = 1
		}
		if len(failed) != want || (want == 1 && failed[0] != row.connFailed) {
			t.Errorf("%s: CONN_FAILED %q, want %q", env.addr, failed, row.connFailed)
		}
		snap := sh.Obs.Snapshot()
		if got := [4]uint64{snap.Count("sighost.calls.failed"), snap.Count("sighost.calls.torn"), snap.Count("sighost.calls.rejected"), snap.Count("sighost.calls.canceled")}; got != row.counts[i] {
			t.Errorf("%s: failed/torn/rejected/canceled = %v, want %v", env.addr, got, row.counts[i])
		}
		if err := chains[i].Err(); err != nil {
			t.Error(err)
		}
		if opens > 0 && chains[i].Records == 0 {
			t.Errorf("%s: the call's changes published no records", env.addr)
		}
	}
	status := ""
	for _, tr := range tc.Completed() {
		if tr.CallID == 1 {
			status = tr.Status
		}
		if err := SpanErr(tr, map[string]int{}, chains...); err != nil {
			t.Error(err)
		}
	}
	if status != row.status {
		t.Errorf("trace status %q, want %q", status, row.status)
	}
}

// TestCauseRoundTrip: a reason parsed at receipt renders back to itself,
// whether the sighost names it or carries it verbatim.
func TestCauseRoundTrip(t *testing.T) {
	check := func(s string) bool { return heard(sigmsg.KindRelease, s).String() == s }
	for _, e := range endings {
		if !check(e.text) {
			t.Errorf("named reason %q does not round-trip", e.text)
		}
	}
	for _, s := range []string{"", "maintenance window", "no such service: x", "bind timeout "} {
		if !check(s) {
			t.Errorf("carried reason %q does not round-trip", s)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	if got := heard(sigmsg.KindRelease, "bind timeout").code; got != causeBindTimeout {
		t.Errorf(`"bind timeout" parses to cause %d, want %d`, got, causeBindTimeout)
	}
}

// eachFunc calls fn with every function declared in the package's
// non-test files.
func eachFunc(t *testing.T, fn func(fset *token.FileSet, where string, body *ast.BlockStmt)) {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Body != nil {
				fn(fset, d.Name.Name, d.Body)
			}
		}
	}
}

// selects reports whether x is sel selected from a field named from
// (sh.ct.callsTorn: selects(x, "ct", "callsTorn")).
func selects(x ast.Expr, from string, sel map[string]bool) (string, bool) {
	s, ok := x.(*ast.SelectorExpr)
	if !ok || !sel[s.Sel.Name] {
		return "", false
	}
	if inner, ok := s.X.(*ast.SelectorExpr); ok && inner.Sel.Name == from {
		return s.Sel.Name, true
	}
	return "", false
}

// TestStateWrittenOnlyByTransition walks the package's non-test files:
// a call's state and the four call lists are written
// only in transition, and replaced wholesale only in wipe (the state a
// process starts with and loses in Crash). The lengths kept in sh.n
// are set only in transition and wipe, and the service list's in the
// functions that write it. A state's timer is armed (its input, alarm,
// handed to After, and its stop and deadline stored) only in transition,
// and canceled only there and in wipe; decodeJrec alone writes another
// deadline, a journal record's.
func TestStateWrittenOnlyByTransition(t *testing.T) {
	lists := map[string]bool{"outgoing": true, "incoming": true, "waitBind": true, "vciMap": true}
	sizes := map[string]bool{"services": true, "outgoing": true, "incoming": true, "waitBind": true, "vciMap": true, "cookies": true, "calls": true}
	serviceWriters := map[string]bool{"handleExport": true, "handleUnexport": true, "Recover": true}
	seen := map[string]int{}  // writes found in transition, per field
	wiped := map[string]int{} // lengths wipe resets
	eachFunc(t, func(fset *token.FileSet, where string, body *ast.BlockStmt) {
		write := func(n ast.Node, field string, wholesale bool) {
			switch {
			case where == "transition" && !wholesale:
				seen[field]++
			case where == "wipe" && wholesale && lists[field]:
			default:
				t.Errorf("%s: %s writes %s", fset.Position(n.Pos()), where, field)
			}
		}
		setsSize := func(n ast.Node, x ast.Expr) {
			field, ok := selects(x, "n", sizes)
			switch {
			case !ok:
			case where == "transition":
				seen["n."+field]++
			case where == "wipe":
				wiped[field]++
			case field == "services" && serviceWriters[where]:
			default:
				t.Errorf("%s: %s sets the kept length of %s", fset.Position(n.Pos()), where, field)
			}
		}
		timer := func(n ast.Node, what string, ok bool) {
			if ok {
				seen[what]++
			} else {
				t.Errorf("%s: %s %s a state's timer", fset.Position(n.Pos()), where, what)
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			var targets []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				targets = n.Lhs
				for _, x := range n.Lhs {
					if sel, ok := x.(*ast.SelectorExpr); ok && (sel.Sel.Name == "stop" || sel.Sel.Name == "deadline") {
						timer(x, "stores "+sel.Sel.Name+" of", where == "transition" || where == "decodeJrec" && sel.Sel.Name == "deadline")
					}
				}
			case *ast.IncDecStmt:
				targets = []ast.Expr{n.X}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" {
					if sel, ok := n.Args[0].(*ast.SelectorExpr); ok && lists[sel.Sel.Name] {
						write(n, sel.Sel.Name, false)
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "put" || sel.Sel.Name == "drop") {
					if list, ok := sel.X.(*ast.SelectorExpr); ok && lists[list.Sel.Name] {
						write(n, list.Sel.Name, false)
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "set" {
					setsSize(n, sel.X)
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "stop" {
					timer(n, "cancels", where == "transition" || where == "wipe")
				}
				for _, arg := range n.Args {
					if sel, ok := arg.(*ast.SelectorExpr); ok && sel.Sel.Name == "alarm" {
						timer(n, "arms", where == "transition")
					}
				}
			case *ast.UnaryExpr: // &sh.n.calls can be set through
				if n.Op == token.AND {
					setsSize(n, n.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "state" {
					write(n, "state", false)
				}
			}
			for _, x := range targets {
				if ix, ok := x.(*ast.IndexExpr); ok {
					if sel, ok := ix.X.(*ast.SelectorExpr); ok && lists[sel.Sel.Name] {
						write(x, sel.Sel.Name, false)
					}
				} else if sel, ok := x.(*ast.SelectorExpr); ok && (sel.Sel.Name == "state" || lists[sel.Sel.Name]) {
					write(x, sel.Sel.Name, sel.Sel.Name != "state")
				}
			}
			return true
		})
	})
	for _, field := range []string{"state", "outgoing", "incoming", "waitBind", "vciMap",
		"n.outgoing", "n.incoming", "n.waitBind", "n.vciMap", "n.cookies", "n.calls",
		"stores stop of", "stores deadline of", "cancels", "arms"} {
		if seen[field] == 0 {
			t.Errorf("transition writes no %s: the walk is looking at the wrong code", field)
		}
	}
	if len(wiped) != len(sizes) {
		t.Errorf("wipe resets the kept lengths of %v, want all of %v", wiped, sizes)
	}
}

// TestLifecycleDerivedOnlyInPublish walks the package's non-test files:
// the lifecycle counters are bumped, the lifecycle events built, the
// recovery counters named and the stage histograms reached only in
// publish, which derives them from a transition record, and the
// lifecycle spans are made only there and in transition. Elsewhere the
// counters may only be read, and register creates the histograms. A
// lifecycle span is any trace start, end or finish, or a recorded span
// of sighost's own; the spans sighost records for another layer's
// operation inside a state (xswitch's program_vc, the kern
// bind/connect) are not, nor is the bind timer's fire lag a stage
// histogram.
func TestLifecycleDerivedOnlyInPublish(t *testing.T) {
	counters := map[string]bool{"callsRequested": true, "callsEstablished": true, "ended": true, "callsTorn": true, "bindTimeouts": true}
	events := map[string]bool{"evTeardown": true, "evBindOK": true, "evBindTime": true}
	recovery := []string{`"sighost.recovered.wait_bind"`, `"sighost.recovered.bound"`, `"sighost.recovery.aborted_calls"`}
	hists := map[string]bool{"stage": true, "setupTotal": true, "acceptTotal": true}
	spans := map[string]bool{"StartTrace": true, "StartCallTrace": true, "StartSpan": true, "StartSpanAt": true, "EndSpan": true, "EndSpanAt": true, "FinishTrace": true, "FinishTraceAt": true}
	seen := map[string]int{} // found where they belong
	eachFunc(t, func(fset *token.FileSet, where string, body *ast.BlockStmt) {
		found := func(n ast.Node, what string) {
			if where == "publish" {
				seen[what]++
			} else {
				t.Errorf("%s: %s uses %s outside publish", fset.Position(n.Pos()), where, what)
			}
		}
		reads := map[ast.Expr]bool{} // counters whose Value is read
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if sel.Sel.Name == "emitTr" {
					if v, ok := n.Args[0].(*ast.Ident); ok && events[v.Name] {
						found(n, v.Name)
					}
				}
				own := sel.Sel.Name == "Record" && len(n.Args) > 1 && isLit(n.Args[1], `"sighost"`)
				switch {
				case !spans[sel.Sel.Name] && !own:
				case where == "publish" || where == "transition":
					seen[sel.Sel.Name]++
				default:
					t.Errorf("%s: %s makes a lifecycle span (%s) outside publish and transition", fset.Position(n.Pos()), where, sel.Sel.Name)
				}
			case *ast.SelectorExpr:
				if name, ok := selects(n, "h", hists); ok && where != "register" {
					found(n, name)
				} else if n.Sel.Name == "Value" {
					x := n.X
					if ix, ok := x.(*ast.IndexExpr); ok {
						x = ix.X
					}
					reads[x] = true
				} else if name, ok := selects(n, "ct", counters); ok && !reads[n] {
					found(n, name)
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "Kind" {
					if v, ok := n.Value.(*ast.Ident); ok && events[v.Name] {
						found(n, v.Name)
					}
				}
			case *ast.BasicLit:
				if slices.Contains(recovery, n.Value) {
					found(n, n.Value)
				}
			}
			return true
		})
	})
	want := slices.Concat(slices.Sorted(maps.Keys(counters)), slices.Sorted(maps.Keys(events)), recovery,
		slices.Sorted(maps.Keys(hists)), []string{"StartCallTrace", "StartSpanAt", "EndSpanAt", "FinishTraceAt", "Record"})
	for _, what := range want {
		if seen[what] == 0 {
			t.Errorf("publish and transition never use %s: the walk is looking at the wrong code", what)
		}
	}
}

// isLit reports whether x is the literal lit, as written.
func isLit(x ast.Expr, lit string) bool {
	l, ok := x.(*ast.BasicLit)
	return ok && l.Value == lit
}
