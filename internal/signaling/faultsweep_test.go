package signaling_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// The fault sweep (DESIGN.md §11, "Fault sweep") checks §10's claim —
// clients and servers "terminated during various stages of the call
// setup process", and state "always correctly restored" — at every
// point of a call rather than at hand-picked ones. A reference run of
// each scenario records its fault points: each distinct instant at
// which a sighost logs a message (its event history's instants, on the
// actor's clock), a sighost publishes a transition record, or an
// application process takes a step. Then, for each point
// k and each fault, one run injects that fault at k and runs to
// quiescence. The fault is scheduled before the engine starts, so it
// fires ahead of every other event of its instant.

// scenario is one reference run: ucb.rt's server registers echo
// (Figure 3), and a client on mh.rt, or on mh.h1 behind it, calls it.
type scenario struct {
	name string
	host bool // the client runs on mh.h1 and reaches mh.rt through anand
	// serve answers one request on the server; call is the client's
	// body once it has slept 100 ms.
	serve func(r *sweepRun, p *kern.Proc, req *signaling.ServiceRequest)
	call  func(r *sweepRun, p *kern.Proc)
}

// callScenario is Figure 4's call: the client opens a connection,
// sends two frames, holds the circuit for hold and hangs up.
func callScenario(name string, host bool, hold time.Duration) *scenario {
	return &scenario{name: name, host: host, serve: acceptAndDrain, call: func(r *sweepRun, p *kern.Proc) {
		conn, err := r.ep.EndLib().OpenConnection(p, "ucb.rt", "echo", 7000, "sweep", "")
		r.step()
		if err != nil {
			return
		}
		sock, err := r.ep.EndStack().PF.Socket(p)
		if err != nil || sock.Connect(conn.VCI, conn.Cookie) != nil {
			return
		}
		p.SP.Sleep(100 * time.Millisecond)
		r.step()
		for i := range 2 {
			_ = sock.Send(fmt.Appendf(nil, "frame %d", i))
		}
		p.SP.Sleep(hold)
		r.step()
		sock.Close()
	}}
}

// acceptAndDrain accepts the call and spawns a worker that binds the
// granted VCI and drains it.
func acceptAndDrain(r *sweepRun, p *kern.Proc, req *signaling.ServiceRequest) {
	vci, _, err := req.Accept(req.QoS)
	r.step()
	if err != nil {
		return
	}
	r.accepted++
	stack := r.rb.Stack
	r.server = append(r.server, stack.Spawn("echo-worker", func(w *kern.Proc) {
		sock, err := stack.PF.Socket(w)
		if err != nil || sock.Bind(vci, req.Cookie) != nil {
			return
		}
		for r.step(); ; r.step() {
			if _, err := sock.Recv(); err != nil {
				return
			}
		}
	}))
}

// sweepScenarios are the sweep's reference runs: Figure 4's call from
// mh.rt and from mh.h1, a call the client cancels while the server
// holds its request, and one the server rejects.
var sweepScenarios = []*scenario{
	callScenario("call", false, 100*time.Millisecond),
	callScenario("host", true, 100*time.Millisecond),
	{name: "cancel", serve: func(r *sweepRun, p *kern.Proc, req *signaling.ServiceRequest) {
		p.SP.Sleep(time.Second) // the client cancels meanwhile
		r.step()
		acceptAndDrain(r, p, req)
	}, call: func(r *sweepRun, p *kern.Proc) {
		pc, err := r.ep.EndLib().OpenConnectionAsync(p, "ucb.rt", "echo", 7000, "sweep", "")
		r.step()
		if err != nil {
			return
		}
		p.SP.Sleep(400 * time.Millisecond) // the server holds the request
		r.step()
		_ = pc.Cancel()
	}},
	{name: "reject", serve: func(r *sweepRun, p *kern.Proc, req *signaling.ServiceRequest) {
		_ = req.Reject("not today")
	}, call: func(r *sweepRun, p *kern.Proc) {
		_, _ = r.ep.EndLib().OpenConnection(p, "ucb.rt", "echo", 7000, "sweep", "")
	}},
}

// sweepRun is one run of a scenario, with at most one fault.
type sweepRun struct {
	n        *testbed.Net
	ra, rb   *testbed.Router
	ep       testbed.Endpoint // the client's machine
	dev      *kern.PseudoDev  // the client machine's device
	client   *kern.Proc
	server   []*kern.Proc // the server and its workers
	accepted int
	chains   [2]*signaling.Chains
	checks   []func() error  // the crash checks
	marks    []time.Duration // when an application took a step
}

// logLine is one sighost message, as the Figure 3/4 golden tests read
// it, with its instant and router.
type logLine struct {
	at   time.Duration
	addr atm.Addr
	line string
}

// chart is both sighosts' messages from their event histories, each
// stamped with the actor's clock, in time order.
func (r *sweepRun) chart() []logLine {
	var lines []logLine
	for _, rt := range []*testbed.Router{r.ra, r.rb} {
		for _, ev := range rt.Sig.SH.Events(signaling.EventRingSize) {
			lines = append(lines, logLine{ev.At, rt.Stack.Addr, ev.Text})
		}
	}
	slices.SortStableFunc(lines, func(a, b logLine) int { return cmp.Compare(a.at, b.at) })
	return lines
}

// chartOf renders both sighosts' messages, one stamped line each.
func (r *sweepRun) chartOf() string {
	var b strings.Builder
	for _, l := range r.chart() {
		fmt.Fprintf(&b, "%14v %-6s %s\n", l.at, l.addr, l.line)
	}
	return b.String()
}

// wrote reports when ucb.rt's sighost wrote VCI_FOR_CONN, or 0.
func (r *sweepRun) wrote() time.Duration {
	for _, l := range r.chart() {
		if l.addr == "ucb.rt" && strings.HasPrefix(l.line, "sighost->app VCI_FOR_CONN") {
			return l.at
		}
	}
	return 0
}

// fault is one of the sweep's faults, fired at its point.
type fault struct {
	name string
	fire func(r *sweepRun)
}

// sweepFaults are the eight faults. A device or peer loss drops
// everything of its kind posted or sent in its instant: the plane it
// swaps in loses all, and the domain's (which injects nothing) is back
// 1 ns later. "A" is the client's side: mh.rt, or for a device loss in
// the host scenario, mh.h1.
var sweepFaults = []*fault{
	{"kill-client", func(r *sweepRun) { r.client.Kill() }},
	{"kill-server", func(r *sweepRun) {
		for _, p := range r.server {
			p.Kill()
		}
	}},
	{"crash-A", func(r *sweepRun) { r.crash(0) }},
	{"crash-B", func(r *sweepRun) { r.crash(1) }},
	{"devloss-A", func(r *sweepRun) { r.devLoss(r.dev) }},
	{"devloss-B", func(r *sweepRun) { r.devLoss(r.rb.Stack.M.Dev) }},
	{"peerloss-A", func(r *sweepRun) { r.peerLoss(r.ra.Sig) }},
	{"peerloss-B", func(r *sweepRun) { r.peerLoss(r.rb.Sig) }},
}

func (r *sweepRun) crash(i int) {
	h := []*signaling.SimHost{r.ra.Sig, r.rb.Sig}[i]
	r.checks = append(r.checks, signaling.CrashForChecked(h, r.chains[i], time.Second))
}

func (r *sweepRun) devLoss(d *kern.PseudoDev) {
	d.SetFaults(faults.NewPlane(faults.Config{DevLoss: 1}))
	r.n.E.Schedule(time.Nanosecond, func() { d.SetFaults(r.n.Faults) })
}

func (r *sweepRun) peerLoss(h *signaling.SimHost) {
	h.Faults = faults.NewPlane(faults.Config{SigLoss: 1})
	r.n.E.Schedule(time.Nanosecond, func() { h.Faults = r.n.Faults })
}

// step records that an application process took a step now.
func (r *sweepRun) step() { r.marks = append(r.marks, r.n.E.Now()) }

// startRun builds sc's testbed, with the fault plane armed but
// injecting nothing, schedules f at at (none when f is nil) and starts
// the applications; the caller runs the engine.
func startRun(t testing.TB, sc *scenario, f *fault, at time.Duration) *sweepRun {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{Faults: &faults.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	r := &sweepRun{n: n, ra: ra, rb: rb, ep: ra, dev: ra.Stack.M.Dev}
	if sc.host {
		h, err := n.AddHost("mh.h1", ra)
		if err != nil {
			t.Fatal(err)
		}
		r.ep, r.dev = h, h.Stack.M.Dev
	}
	for i, rt := range []*testbed.Router{ra, rb} {
		r.chains[i] = signaling.WatchChains(rt.Sig.SH)
		rt.Sig.SH.EnableTrace(true)
	}
	if f != nil {
		n.E.Schedule(at, func() { f.fire(r) })
	}
	r.server = []*kern.Proc{rb.Stack.Spawn("echo-server", func(p *kern.Proc) {
		r.step()
		err := rb.Lib.ExportService(p, "echo", 6000)
		r.step()
		if err != nil {
			return
		}
		kl, err := rb.Lib.CreateReceiveConnection(p, 6000)
		if err != nil {
			return
		}
		for {
			req, err := rb.Lib.AwaitServiceRequest(p, kl)
			r.step()
			if err != nil {
				return
			}
			sc.serve(r, p, req)
		}
	})}
	r.client = r.ep.EndStack().Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		r.step()
		sc.call(r, p)
	})
	return r
}

// quiet is how long a run goes on after its last point: past a bind
// timer started there, and a crash's recovery.
func (r *sweepRun) quiet() time.Duration { return 2 * r.n.CM.BindTimeout }

// finish runs r to quiescence at until and reports what it failed:
// Net.Audit, both sighosts' chains, and its crash check.
func (r *sweepRun) finish(until time.Duration) error {
	defer r.n.Close()
	r.n.E.RunUntil(until)
	var errs []error
	for _, leak := range r.n.Audit() {
		errs = append(errs, errors.New(leak))
	}
	for _, ch := range r.chains {
		errs = append(errs, ch.Err())
	}
	for _, check := range r.checks {
		errs = append(errs, check())
	}
	return errors.Join(errs...)
}

// points are the reference run's fault points, in order.
func (r *sweepRun) points() []time.Duration {
	pts := slices.Clone(r.marks)
	for _, l := range r.chart() {
		pts = append(pts, l.at)
	}
	for _, ch := range r.chains {
		pts = append(pts, ch.Instants()...)
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

// triple names one run of the sweep.
type triple struct {
	scenario string
	k        int
	fault    string
}

func (tr triple) String() string { return fmt.Sprintf("(%s, %d, %s)", tr.scenario, tr.k, tr.fault) }

// knownDefects are the triples that fail, each with its point's instant
// and the ROADMAP item 1(B) slice it reproduces. The PR that fixes one
// deletes its row: a listed triple that passes fails the sweep.
var knownDefects = map[triple]struct{ at, slice string }{
	// A CLOSE_IND dropped at mh.rt's /dev/anand as the client hangs up:
	// both routers keep the call in VCI_mapping, the fabric its VC.
	{"call", 23, "devloss-A"}: {"645.594648ms", "1(B)(d) lost close"},
	{"host", 24, "devloss-A"}: {"646.222648ms", "1(B)(d) lost close"},
	// mh.rt is down for 1 s across the hang-up: the client's close is
	// dropped, Recover restores the call as bound, and both routers hold
	// it.
	{"call", 19, "crash-A"}: {"447.641972ms", "1(B)(e) close lost in an outage"},
	{"call", 20, "crash-A"}: {"545.594648ms", "1(B)(e) close lost in an outage"},
	{"call", 21, "crash-A"}: {"547.63255ms", "1(B)(e) close lost in an outage"},
	{"call", 22, "crash-A"}: {"547.641972ms", "1(B)(e) close lost in an outage"},
	{"call", 23, "crash-A"}: {"645.594648ms", "1(B)(e) close lost in an outage"},
	{"host", 20, "crash-A"}: {"447.957892ms", "1(B)(e) close lost in an outage"},
	{"host", 21, "crash-A"}: {"546.222648ms", "1(B)(e) close lost in an outage"},
	{"host", 22, "crash-A"}: {"548.36375ms", "1(B)(e) close lost in an outage"},
	{"host", 23, "crash-A"}: {"548.373172ms", "1(B)(e) close lost in an outage"},
	{"host", 24, "crash-A"}: {"646.222648ms", "1(B)(e) close lost in an outage"},
	{"host", 25, "crash-A"}: {"646.326728ms", "1(B)(e) close lost in an outage"},
}

// TestFaultSweep runs every scenario with each fault at each of its
// points, and requires at quiescence a clean Net.Audit, both sighosts'
// chains whole (each call ends exactly once per incarnation), and after
// a crash the calls its Recover must restore restored. A failure prints
// its triple and both sighosts' message charts.
func TestFaultSweep(t *testing.T) {
	runs, failed := 0, 0
	ran := map[triple]bool{} // the known defects' runs
	for _, sc := range sweepScenarios {
		ref := startRun(t, sc, nil, 0)
		ref.n.E.RunUntil(time.Minute)
		for _, rt := range []*testbed.Router{ref.ra, ref.rb} {
			if evs := rt.Sig.SH.Events(1); len(evs) > 0 && evs[0].Seq >= signaling.EventRingSize {
				t.Fatalf("%s: %s's event history wrapped, so its points are not all there", sc.name, rt.Stack.Addr)
			}
		}
		pts := ref.points()
		until := pts[len(pts)-1] + ref.quiet()
		if err := ref.finish(until); err != nil {
			t.Fatalf("%s: the reference run fails: %v\n%s", sc.name, err, ref.chartOf())
		}
		for k, at := range pts {
			for _, f := range sweepFaults {
				tr := triple{sc.name, k, f.name}
				r := startRun(t, sc, f, at)
				err := r.finish(until)
				runs++
				if err != nil {
					failed++
				}
				known, listed := knownDefects[tr]
				if listed {
					ran[tr] = true
				}
				switch {
				case listed && known.at != at.String():
					t.Errorf("known defect %v is listed at %s, but its point is at %v: renumber its row", tr, known.at, at)
				case err != nil && !listed:
					t.Errorf("%v at %v fails: %v\n%s", tr, at, err, r.chartOf())
				case err == nil && listed:
					t.Errorf("known defect %v (%s) no longer fails: delete its row", tr, known.slice)
				}
			}
		}
		t.Logf("%s: %d points × %d faults", sc.name, len(pts), len(sweepFaults))
	}
	for tr, known := range knownDefects {
		if !ran[tr] {
			t.Errorf("known defect %v at %s (%s) names no run: delete or renumber its row", tr, known.at, known.slice)
		}
	}
	t.Logf("%d runs, %d failed, %d known-defect triples", runs, failed, len(knownDefects))
}
