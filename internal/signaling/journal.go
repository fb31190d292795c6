package signaling

import (
	"encoding/binary"
	"errors"
	"maps"
	"slices"
	"sort"
	"time"

	"xunet/internal/atm"
	"xunet/internal/memnet"
	"xunet/internal/obs"
)

// Crash-recovery for the signaling entity. sighost's state is exactly
// the five lists of §7.3, whose calls carry their cookies, so a bounded
// write-ahead journal of list transitions is enough to rebuild it: on
// restart the journal is replayed, wait_for_bind timers are re-armed
// with their REMAINING (not full) deadlines, and calls that were still
// mid-establishment are torn down with the paper's disconnect
// indications, since their in-flight handshakes died with the process.
//
// The journal is an in-memory byte log standing in for the disk log a
// real daemon would write (the sim has no filesystem); it survives
// Crash() because it models persistent storage. Records are encoded
// into a per-dispatch batch and appended to the log in one copy when
// the dispatch completes (jflush), so a teardown cascade costs one
// append, not one per record — and the batch buffer is reused, so
// steady-state journaling allocates nothing. Entries for dead calls
// are compacted away once the log exceeds its bound, keeping it
// proportional to live state. VC handles cannot ride a byte log; a
// side table keyed by VCI stands in for re-resolving the circuit from
// the switch tables on restart (DESIGN.md §11 records the
// substitution).

type jop uint8

const (
	jExport jop = iota + 1
	jUnexport
	jOpen  // call created (either side)
	jGrant // VCI + cookie handed out, bind timer armed
	jBound // bind authenticated, entry moved to VCI_mapping
	jEnd   // call released (any path)
)

// jrec is one journal record; fields beyond op/key are op-specific.
type jrec struct {
	op      jop
	key     callKey
	service string
	ip      memnet.IPAddr
	port    uint16
	qos     string
	cookie  uint16
	vci     atm.VCI
	// deadline is the ABSOLUTE bind deadline (sim clock), so recovery
	// can re-arm the timer with only the remaining allowance.
	deadline time.Duration
	vc       *VCHandle
}

// Wire format of one record: u16 payload length, then
//
//	u8 op · u8-prefixed peer · u32 id · u8 origin ·
//	u16-prefixed service · u32 ip · u16 port · u16-prefixed qos ·
//	u16 cookie · u16 vci · u64 deadline · u8 hasVC
//
// all big-endian. Replay stops at the first short or corrupt record,
// like a daemon reading a torn tail after a crash mid-write.

var errJrec = errors.New("signaling: corrupt journal record")

// appendJrec appends r's encoding to dst.
func appendJrec(dst []byte, r *jrec) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0) // payload length, patched below
	dst = append(dst, byte(r.op))
	peer := r.key.peer
	if len(peer) > 255 {
		peer = peer[:255]
	}
	dst = append(dst, byte(len(peer)))
	dst = append(dst, peer...)
	dst = binary.BigEndian.AppendUint32(dst, r.key.id)
	if r.key.origin {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendStr16(dst, r.service)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.ip))
	dst = binary.BigEndian.AppendUint16(dst, r.port)
	dst = appendStr16(dst, r.qos)
	dst = binary.BigEndian.AppendUint16(dst, r.cookie)
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.vci))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.deadline))
	if r.vc != nil {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	binary.BigEndian.PutUint16(dst[lenAt:], uint16(len(dst)-lenAt-2))
	return dst
}

func appendStr16(dst []byte, s string) []byte {
	if len(s) > 1<<16-1 {
		s = s[:1<<16-1]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// decodeJrec decodes one record from the front of b, resolving circuit
// handles through the vcs side table. Returns the bytes consumed.
func decodeJrec(b []byte, vcs []*VCHandle) (jrec, int, error) {
	var r jrec
	if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
		return r, 0, errJrec
	}
	n := 2 + int(binary.BigEndian.Uint16(b))
	d := jdec{p: b[2:n]}
	r.op = jop(d.uint(1))
	r.key.peer = atm.Addr(d.take(int(d.uint(1))))
	r.key.id = uint32(d.uint(4))
	r.key.origin = d.uint(1) != 0
	r.service = string(d.take(int(d.uint(2))))
	r.ip = memnet.IPAddr(d.uint(4))
	r.port = uint16(d.uint(2))
	r.qos = string(d.take(int(d.uint(2))))
	r.cookie = uint16(d.uint(2))
	r.vci = atm.VCI(d.uint(2))
	r.deadline = time.Duration(d.uint(8))
	hasVC := d.uint(1) != 0
	if d.short {
		return jrec{}, 0, errJrec
	}
	if hasVC {
		if int(r.vci) < len(vcs) {
			r.vc = vcs[r.vci]
		}
	}
	return r, n, nil
}

// jdec reads a record's fields in order; a read past the end of the
// payload yields nothing and marks the record short.
type jdec struct {
	p     []byte
	short bool
}

func (d *jdec) take(n int) []byte {
	if len(d.p) < n {
		d.p, d.short = nil, true
		return nil
	}
	v := d.p[:n]
	d.p = d.p[n:]
	return v
}

// uint reads an n-byte big-endian integer.
func (d *jdec) uint(n int) (v uint64) {
	for _, c := range d.take(n) {
		v = v<<8 | uint64(c)
	}
	return v
}

// journal is the bounded write-ahead log.
type journal struct {
	buf      []byte // durable log: encoded records back-to-back
	n        int    // records in buf
	pending  []byte // current dispatch's batch, not yet appended
	pendingN int
	spare    []byte // compaction double-buffer (swap keeps it alloc-free)
	cap      int
	// vcs maps granted VCIs to their circuit handles (see file comment),
	// indexed by VCI.
	vcs []*VCHandle
	// generation counts recoveries; it seeds the reliability epoch so
	// peers can tell a new incarnation's messages from stale ones.
	generation uint32
	// lastCallID persists the allocator so a recovered sighost never
	// reuses a call ID that a peer may still hold state for.
	lastCallID uint32
	svcScratch []string // sorted-services scratch for compaction
	// len(buf), n and pendingN, for readers off the actor.
	nBytes, nRecords, nPending size

	appends     *obs.Counter // sighost.journal.appends (records)
	batches     *obs.Counter // sighost.journal.batches (one per flush)
	compactions *obs.Counter // sighost.journal.compactions
	truncated   *obs.Counter // sighost.journal.truncated (replay cut short)
}

// EnableJournal attaches a write-ahead journal with the given record
// bound (<=0 selects 4096) and enables Crash/Recover.
func (sh *Sighost) EnableJournal(bound int) {
	if bound <= 0 {
		bound = 4096
	}
	sh.jr = &journal{
		cap:         bound,
		appends:     sh.Obs.Counter("sighost.journal.appends"),
		batches:     sh.Obs.Counter("sighost.journal.batches"),
		compactions: sh.Obs.Counter("sighost.journal.compactions"),
		truncated:   sh.Obs.Counter("sighost.journal.truncated"),
	}
	// Occupancy as read-through metrics, for the time-series scrape:
	// durable log size and the in-flight batch depth.
	sh.Obs.Func("sighost.journal.bytes", sh.jr.nBytes.get)
	sh.Obs.Func("sighost.journal.records", sh.jr.nRecords.get)
	sh.Obs.Func("sighost.journal.pending", sh.jr.nPending.get)
}

// openRec is the record of a call's opening.
func openRec(c *call) jrec {
	return jrec{op: jOpen, key: c.key, service: c.service, qos: c.qosStr, ip: c.endIP, port: c.endPort, cookie: c.cookie}
}

// jlog encodes one record into the current dispatch's batch. Every
// jlog call sits AFTER the state mutation it describes, so live state
// always subsumes the batch — which is what lets jflush compact
// instead of appending when the log is full.
func (sh *Sighost) jlog(r jrec) {
	j := sh.jr
	if j == nil {
		return
	}
	if r.vc != nil {
		j.vcs = atm.Grow(j.vcs, r.vci)
		j.vcs[r.vci] = r.vc
	}
	j.pending = appendJrec(j.pending, &r)
	j.pendingN++
	j.nPending.set(j.pendingN)
	if r.op == jOpen && r.key.origin && r.key.id > j.lastCallID {
		j.lastCallID = r.key.id
	}
}

// jflush makes the current batch durable in one append, compacting
// instead when the log would exceed its bound. Called at the end of
// every dispatch (handler or timer/dial callback); no-op when nothing
// was logged.
func (sh *Sighost) jflush() {
	j := sh.jr
	if j == nil || j.pendingN == 0 {
		return
	}
	j.appends.Add(uint64(j.pendingN))
	j.batches.Inc()
	if j.n+j.pendingN > j.cap {
		sh.compactJournal() // rewrite subsumes (and discards) the batch
		return
	}
	j.buf = append(j.buf, j.pending...)
	j.n += j.pendingN
	j.settle()
}

// settle empties the batch, which the log now holds, and stores the
// log's occupancy where its metrics read it.
func (j *journal) settle() {
	j.pending = j.pending[:0]
	j.pendingN = 0
	j.nBytes.set(len(j.buf))
	j.nRecords.set(j.n)
	j.nPending.set(0)
}

// compactJournal rewrites the log from live state: one export per
// registered service (sorted, so the byte log is deterministic), and
// per live call an open plus its grant/bound progress. Ended calls
// vanish, and any pending batch is discarded — live state already
// reflects it (see jlog).
func (sh *Sighost) compactJournal() {
	j := sh.jr
	j.compactions.Inc()
	out := j.spare[:0]
	n := 0
	clear(j.vcs)
	svcs := j.svcScratch[:0]
	for name := range sh.services {
		svcs = append(svcs, name)
	}
	sort.Strings(svcs)
	j.svcScratch = svcs[:0]
	for _, name := range svcs {
		svc := sh.services[name]
		out = appendJrec(out, &jrec{op: jExport, service: svc.name, ip: svc.ip, port: svc.port})
		n++
	}
	for _, c := range sh.calls.bySeq(every) {
		r := openRec(c)
		out = appendJrec(out, &r)
		n++
		if c.localVCI == 0 {
			continue
		}
		if c.vc != nil {
			j.vcs = atm.Grow(j.vcs, c.localVCI)
			j.vcs[c.localVCI] = c.vc
		}
		if sh.waitBind.at(c.localVCI) == c {
			out = appendJrec(out, &jrec{
				op: jGrant, key: c.key, vci: c.localVCI, cookie: c.cookie,
				deadline: c.deadline, vc: c.vc,
			})
			n++
		} else if sh.vciMap.at(c.localVCI) == c {
			out = appendJrec(out, &jrec{op: jGrant, key: c.key, vci: c.localVCI, cookie: c.cookie, vc: c.vc})
			out = appendJrec(out, &jrec{op: jBound, key: c.key, vci: c.localVCI})
			n += 2
		}
	}
	j.spare, j.buf, j.n = j.buf, out, n
	j.settle()
}

// Crash models the signaling process dying: every timer is canceled and
// all five lists, the calls in them, and the reliability state vanish.
// While down, every handler drops its input (the peers' retransmissions
// are what carry calls across the outage). The journal survives — it
// models persistent storage; any batch still pending is flushed first,
// since its records were logged before the "write" that killed us.
func (sh *Sighost) Crash() {
	if sh.down {
		return
	}
	sh.jflush()
	sh.down = true
	sh.Obs.Counter("sighost.crashes").Inc()
	if sh.traceOn() {
		sh.emit(Event{Kind: evCrash})
	}
	if sh.rel != nil {
		// Pending messages go back to the pool in peer and Seq order, as
		// wipe's calls in creation order: in map order, which record a
		// later draw reuses would differ from run to run.
		for _, peer := range slices.Sorted(maps.Keys(sh.rel.links)) {
			lk := sh.rel.links[peer]
			sh.rel.dropWhere(lk, every)
			if lk.kaCancel != nil {
				lk.kaCancel()
			}
		}
		sh.rel.links = make(map[atm.Addr]*peerLink)
	}
	sh.wipe()
}

// Recover restarts a crashed sighost: bump the incarnation, replay the
// journal, re-arm bind timers with remaining deadlines, and tear down
// calls that were mid-establishment when the process died.
func (sh *Sighost) Recover() {
	if !sh.down {
		return
	}
	sh.down = false
	sh.Obs.Counter("sighost.recoveries").Inc()
	if sh.traceOn() {
		sh.emit(Event{Kind: evRecover})
	}
	if sh.jr == nil {
		return // no journal: recovered empty, like a cold start
	}
	sh.jr.generation++
	sh.epochGen = sh.jr.generation
	if sh.jr.lastCallID > sh.nextCallID {
		sh.nextCallID = sh.jr.lastCallID
	}

	// Fold the log into per-call final state. Replay stops at the first
	// unreadable record: everything before the torn tail still recovers.
	type replay struct {
		open     jrec
		grant    jrec
		hasGrant bool
		bound    bool
	}
	live := make(map[callKey]*replay)
	order := make([]callKey, 0, 16)
	b := sh.jr.buf
	for len(b) > 0 {
		r, n, err := decodeJrec(b, sh.jr.vcs)
		if err != nil {
			sh.jr.truncated.Inc()
			break
		}
		b = b[n:]
		switch r.op {
		case jExport:
			sh.services[r.service] = &serviceEntry{name: r.service, ip: r.ip, port: r.port}
		case jUnexport:
			delete(sh.services, r.service)
		case jOpen:
			if _, dup := live[r.key]; !dup {
				order = append(order, r.key)
			}
			live[r.key] = &replay{open: r}
		case jGrant:
			if st, ok := live[r.key]; ok {
				st.grant = r
				st.hasGrant = true
			}
		case jBound:
			if st, ok := live[r.key]; ok {
				st.bound = true
			}
		case jEnd:
			delete(live, r.key)
		}
	}
	sh.n.services.set(len(sh.services))

	// Each call is rebuilt through the same transitions it first took;
	// what they journal is discarded by the compaction that ends replay.
	now := sh.env.Now()
	var aborted []*call
	for _, key := range order {
		st, ok := live[key]
		if !ok {
			continue
		}
		delete(live, key) // a corrupt log may repeat keys; build each once
		c := sh.newCall()
		c.key = key
		c.service, c.qosStr, c.cookie = st.open.service, st.open.qos, st.open.cookie
		c.endIP, c.endPort = st.open.ip, st.open.port
		open := callWaitServer
		if key.origin {
			open = callSetupSent
		}
		sh.publish(c, sh.transition(c, open, restarted, 0))
		if st.hasGrant {
			c.localVCI, c.vc = st.grant.vci, st.grant.vc
		}
		switch {
		case st.bound && st.hasGrant:
			// Fully established and bound: restore VCI_mapping.
			sh.publish(c, sh.transition(c, callBound, restarted, 0))
		case st.hasGrant && st.grant.deadline > now:
			// Granted but unbound: restore wait_for_bind with whatever
			// allowance the call had left.
			sh.publish(c, sh.transition(c, callEstablished, restarted, st.grant.deadline))
		default:
			// Mid-establishment, its handshake died with the process; or
			// granted, its bind timer ran out during the outage.
			aborted = append(aborted, c)
		}
	}
	for _, c := range aborted {
		sh.end(c, restarted)
	}
	sh.compactJournal()
}
