package signaling

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/memnet"
	"xunet/internal/rtnet"
	"xunet/internal/sigmsg"
	"xunet/internal/trace"
)

// PeerFor returns the carrier peer that signaling for dst goes to. The
// route table is the actor's: call it in actor context (RealHost.Do).
func (h *RealHost) PeerFor(dst atm.Addr) *rtnet.Peer { return h.peers[dst] }

// appMsg and peerMsg hand dispatch one message from an application or
// a peer in a record of the entity's, as the sim actor does.
func (sh *Sighost) appMsg(conn Conn, from memnet.IPAddr, m sigmsg.Msg) {
	sh.feed(input{kind: inApp, conn: conn, ip: from, msg: m})
}

func (sh *Sighost) peerMsg(from atm.Addr, m sigmsg.Msg) {
	sh.feed(input{kind: inPeer, peer: from, msg: m})
}

func (sh *Sighost) feed(in input) {
	r := sh.inputs.Get()
	*r = in
	sh.dispatch(r)
	sh.inputs.Put(r)
}

// Chains watches one sighost's transition records through its hook and
// checks that, per call key, they form one chain: it opens from callNew,
// each record's From is the previous record's To, and exactly one
// record, the last, goes to callReleased. A crash closes every open
// chain; Recover, which bumps the incarnation (with a journal), opens
// new ones, with cause restarted, only for calls a crash closed.
type Chains struct {
	sh      *Sighost
	inc     uint32                // sh.epochGen when the last record came
	open    map[callKey]callState // each open chain's last To
	lost    map[callKey]bool      // chains a crash closed
	errs    []error
	log     []stamped // every record, in order
	Records int       // records seen
	Rebuilt int       // chains Recover opened
}

// stamped is a record, the instant it was published, and whether its
// call's trace was still open then.
type stamped struct {
	Transition
	pub  time.Duration
	live bool
}

// WatchChains sets sh's hook to a new Chains.
func WatchChains(sh *Sighost) *Chains {
	ch := &Chains{sh: sh, inc: sh.epochGen, open: map[callKey]callState{}, lost: map[callKey]bool{}}
	sh.hook = ch.add
	return ch
}

func (ch *Chains) add(tr Transition) {
	ch.Records++
	origin := tr.Call.peer // the call's trace is its origin's
	if tr.Call.origin {
		origin = ch.sh.env.Addr()
	}
	t, ok := ch.sh.TraceC.ByCall(string(origin), tr.Call.id)
	ch.log = append(ch.log, stamped{tr, ch.sh.env.Now(), ok && t.Status == ""})
	if ch.sh.epochGen != ch.inc { // crashed and recovered since the last record
		ch.inc = ch.sh.epochGen
		for k := range ch.open {
			ch.lost[k] = true
		}
		clear(ch.open)
	}
	last, open := ch.open[tr.Call]
	fail := func(format string, args ...any) {
		ch.errs = append(ch.errs, fmt.Errorf("%s: call %+v, %d → %d: %s", ch.sh.env.Addr(), tr.Call, tr.From, tr.To, fmt.Sprintf(format, args...)))
	}
	switch {
	case tr.From == callNew && open:
		fail("opens a second chain while one is open at %d", last)
	case tr.From == callNew && tr.Cause == restarted && !ch.lost[tr.Call]:
		fail("rebuilt, but no crash closed its chain")
	case tr.From != callNew && !open:
		fail("continues no open chain")
	case tr.From != callNew && tr.From != last:
		fail("the chain is at %d", last)
	}
	if tr.From == callNew && tr.Cause == restarted {
		ch.Rebuilt++
	}
	delete(ch.lost, tr.Call)
	if tr.To == callReleased {
		delete(ch.open, tr.Call)
	} else {
		ch.open[tr.Call] = tr.To
	}
}

// Err reports the broken chains, and then, read with the sighost
// quiescent: an open chain that is not a live call in the state it
// reached, and a kept length that is not its map's (or log's).
func (ch *Chains) Err() error {
	sh := ch.sh
	errs := ch.errs
	for k, st := range ch.open {
		if c := sh.calls.get(k); c == nil {
			errs = append(errs, fmt.Errorf("%s: chain of %+v open at %d, but the call is gone", sh.env.Addr(), k, st))
		} else if c.state != st {
			errs = append(errs, fmt.Errorf("%s: chain of %+v open at %d, but the call is at %d", sh.env.Addr(), k, st, c.state))
		}
	}
	ncalls := 0
	for range sh.calls.all() {
		ncalls++
	}
	if ncalls != len(ch.open) {
		errs = append(errs, fmt.Errorf("%s: %d live calls, %d open chains", sh.env.Addr(), ncalls, len(ch.open)))
	}
	type length struct {
		name string
		kept *size
		len  int
	}
	entries := func(l byVCI) (n int) {
		for _, c := range l.tab {
			if c != nil {
				n++
			}
		}
		return n
	}
	mapped := entries(sh.waitBind) // VCIs mapped to a call, each holding a cookie
	for v, c := range sh.vciMap.tab {
		if c != nil && sh.waitBind.at(atm.VCI(v)) == nil {
			mapped++
		}
	}
	lengths := []length{
		{"services", &sh.n.services, len(sh.services)},
		{"outgoing", &sh.n.outgoing, len(sh.outgoing)},
		{"incoming", &sh.n.incoming, len(sh.incoming)},
		{"wait_for_bind", &sh.n.waitBind, entries(sh.waitBind)},
		{"VCI_mapping", &sh.n.vciMap, entries(sh.vciMap)},
		{"cookies", &sh.n.cookies, mapped},
		{"calls", &sh.n.calls, ncalls},
	}
	if j := sh.jr; j != nil {
		lengths = append(lengths, length{"journal bytes", &j.nBytes, len(j.buf)},
			length{"journal records", &j.nRecords, j.n}, length{"journal pending", &j.nPending, j.pendingN})
	}
	if sh.rel != nil {
		for _, lk := range sh.rel.links {
			lengths = append(lengths, length{"backlog to " + string(lk.addr), &lk.backlog, lk.unacked.Len()})
		}
	}
	for _, l := range lengths {
		if got := int(l.kept.get()); got != l.len {
			errs = append(errs, fmt.Errorf("%s: %s kept as %d, is %d", sh.env.Addr(), l.name, got, l.len))
		}
	}
	return errors.Join(errs...)
}

// Instants lists when ch's records were published, in order.
func (ch *Chains) Instants() []time.Duration {
	at := make([]time.Duration, len(ch.log))
	for i, r := range ch.log {
		at[i] = r.pub
	}
	return at
}

// Ends lists the calls ch saw end, in order, as "call <id>: <cause>".
func (ch *Chains) Ends() []string {
	var ends []string
	for _, r := range ch.log {
		if r.To == callReleased {
			ends = append(ends, fmt.Sprintf("call %d: %s", r.Call.id, r.Cause))
		}
	}
	return ends
}

// CrashForChecked crashes h for d, as h.CrashFor does, and returns a
// check of the Recover that ends the outage, to read at quiescence: each
// call that was in wait_for_bind or VCI_mapping at the crash is back in
// the same list, and Recover ended every other call, cause restarted. ch
// watches h's sighost.
func CrashForChecked(h *SimHost, ch *Chains, d time.Duration) func() error {
	sh := h.SH
	lists := func() map[callKey]string {
		in := make(map[callKey]string, sh.calls.len())
		for _, c := range sh.calls.all() {
			k := c.key
			switch c {
			case sh.waitBind.at(c.localVCI):
				in[k] = "wait_for_bind"
			case sh.vciMap.at(c.localVCI):
				in[k] = "VCI_mapping"
			default:
				in[k] = ""
			}
		}
		return in
	}
	var at map[callKey]string
	var from int // ch.log's length at the crash: Recover's records follow
	var errs []error
	h.put(input{fn: func() { at, from = lists(), len(ch.log) }})
	h.CrashFor(d)
	h.Stack.M.E.Schedule(d, func() {
		h.put(input{fn: func() {
			now := lists()
			for k, list := range at {
				ended := slices.ContainsFunc(ch.log[from:], func(r stamped) bool {
					return r.Call == k && r.To == callReleased && r.Cause == restarted
				})
				switch {
				case list != "" && now[k] != list:
					errs = append(errs, fmt.Errorf("%s: call %+v was in %s at the crash, is in %q after Recover", sh.env.Addr(), k, list, now[k]))
				case list == "" && !ended:
					errs = append(errs, fmt.Errorf("%s: call %+v, in no list at the crash, did not end restarted in Recover", sh.env.Addr(), k))
				}
			}
		}})
	})
	return func() error { return errors.Join(errs...) }
}

// SpanErr checks that each lifecycle span of the finished trace t is a
// state of its call (DESIGN.md §12), against the records chains saw. A
// span starts at the At of the record that entered its state (for the
// root and call.setup, callRequested), and ends at the At of the record
// that left it: for call.setup the one entering callEstablished, and
// for dest.deliver the instant the destination's grant was published. A
// state the call ends in (unless a SETUP_REJ answers it), one a crash
// cuts short, or one left once the trace has finished leaves its span
// Open. The root ends as the origin's call leaves its
// lists, a teardown's logging charge after its Released record. seen
// counts the spans checked by name, and the Open ones as "open".
func SpanErr(t *trace.Trace, seen map[string]int, chains ...*Chains) error {
	enters := map[string]callState{"call.setup": callRequested, "dest.deliver": callEstablished}
	for s, st := range stages {
		if st.span != "" {
			enters[st.span] = callState(s)
		}
	}
	var errs []error
	for _, sp := range t.Spans {
		name := sp.Name
		state, ok := enters[name]
		if sp.Parent == 0 {
			name, state, ok = "root", callRequested, true
		}
		if !ok {
			continue
		}
		seen[name]++
		if sp.Open {
			seen["open"]++
		}
		fail := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("trace %d (call %d): %s [%v, %v] open=%v: %s",
				t.ID, t.CallID, name, sp.Start, sp.End, sp.Open, fmt.Sprintf(format, args...)))
		}
		ch, i := entered(chains, t.CallID, state, sp.Start, name == "dest.deliver")
		if ch == nil {
			fail("no record enters %s then", stages[state].name)
			continue
		}
		var end time.Duration // where the span must end, if closed
		closed := false
		switch name {
		case "root":
			rel := ch.next(i, func(r *stamped) bool { return r.To == callReleased })
			if rel == nil {
				fail("the origin never released the call")
				continue
			}
			end, closed = rel.At, true
			if rel.Cause.ending().torn && ch.sh.cm.LoggingEnabled {
				end += ch.sh.cm.TeardownLogging
			}
		case "dest.deliver":
			end, closed = ch.log[i].pub, true
		default:
			r := ch.next(i, func(r *stamped) bool {
				return name != "call.setup" || r.From == callProgramming || r.To == callReleased
			})
			if r != nil && r.live {
				end, closed = r.At, r.To != callReleased || r.Cause.rejects()
				if name == "call.setup" {
					closed = r.To == callEstablished
				}
			}
		}
		switch {
		case closed && sp.Open:
			fail("left open, but its state ended at %v", end)
		case closed && sp.End != end:
			fail("its state ended at %v", end)
		case !closed && !sp.Open:
			fail("closed, but the call ended in its state, a crash cut it short, or the trace had finished")
		}
	}
	return errors.Join(errs...)
}

// entered finds the record of call id that entered state s at at (at
// the destination, for dest), in one of chains' logs.
func entered(chains []*Chains, id uint32, s callState, at time.Duration, dest bool) (*Chains, int) {
	for _, ch := range chains {
		for i, r := range ch.log {
			if r.Call.id == id && r.To == s && r.At == at && r.Cause != restarted && !(dest && r.Call.origin) {
				return ch, i
			}
		}
	}
	return nil, 0
}

// next returns the first record after log[i] on its chain that ok
// accepts, or nil: none came, or a crash ended the chain first.
func (ch *Chains) next(i int, ok func(*stamped) bool) *stamped {
	for j := i + 1; j < len(ch.log); j++ {
		r := &ch.log[j]
		switch {
		case r.Call != ch.log[i].Call:
		case r.From == callNew:
			return nil
		case ok(r):
			return r
		}
	}
	return nil
}

// Cells counts the protocol cells that watched sighosts run, per
// (state, input), and checks that each action cell leaves its call in
// the state the table names, unless it ends it.
type Cells struct {
	hits [len(callInputs)][len(stages)]int
	errs []error
}

// Watch makes cs count sh's cells.
func (cs *Cells) Watch(sh *Sighost) {
	sh.cells = func(c *call, gen uint32, from callState, on callInput) {
		cs.hits[on][from]++
		cl := protocol[on][from]
		if c == nil || cl == ign {
			return
		}
		to := c.state
		if c.gen != gen {
			to = callReleased
		}
		if to != cl.to && to != callReleased {
			cs.errs = append(cs.errs, fmt.Errorf("%s: %s in %s left the call %s, the table says %s",
				sh.env.Addr(), callInputs[on], stages[from].name, stages[to].name, stages[cl.to].name))
		}
	}
}

// RunEndRows runs TestEveryCauseEndsOnce's rows, each a subtest, with
// both sighosts of each watched.
func (cs *Cells) RunEndRows(t *testing.T) {
	for _, row := range endRows {
		t.Run(row.name, func(t *testing.T) { row.run(t, cs.Watch) })
	}
}

// Err reports the cells that left a call off the table, and each action
// cell no watched sighost ran.
func (cs *Cells) Err() error {
	errs := cs.errs
	for on, row := range protocol {
		for from, cl := range row {
			if cl != ign && cs.hits[on][from] == 0 {
				errs = append(errs, fmt.Errorf("no test reaches the action cell %s in %s", callInputs[on], stages[from].name))
			}
		}
	}
	return errors.Join(errs...)
}

// Hits lists the cells the watched sighosts ran, with their counts.
func (cs *Cells) Hits() string {
	var b strings.Builder
	for on, row := range cs.hits {
		for from, n := range row {
			if n > 0 {
				kind := "action"
				if protocol[on][from] == ign {
					kind = "ignored"
				}
				fmt.Fprintf(&b, "%s in %s (%s): %d\n", callInputs[on], stages[from].name, kind, n)
			}
		}
	}
	return b.String()
}

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled

// The event kinds external tests look for.
const (
	EvBindOK   = evBindOK
	EvTeardown = evTeardown
)
