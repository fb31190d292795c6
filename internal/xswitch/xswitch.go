// Package xswitch simulates the Xunet 2 wide-area ATM network: cell
// switches with per-port VCI translation tables, finite per-class output
// queues drained by a weighted-round-robin scheduler (the scheduling
// discipline of Saran, Keshav, Kalmanek and Morgan, the paper's
// reference [17]), DS3 and OC-12 trunk models, and hop-by-hop switched
// virtual circuit setup with per-link admission control.
//
// The paper's testbed was "two routers (SGI 4D/30 workstations), with a
// three hop (two switch) ATM path between them"; Topology helpers in
// this package rebuild that testbed and the five-site Xunet map.
//
// Control-plane note: Xunet's switches were programmed by a proprietary
// signaling protocol. This reproduction keeps the switch tables and
// per-hop VCI allocation real but drives them through direct Fabric
// calls from the signaling entity, charging a per-hop programming cost
// in virtual time (DESIGN.md §2 records the substitution).
package xswitch

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/obs"
	"xunet/internal/obs/tseries"
	"xunet/internal/prof"
	"xunet/internal/qos"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// LinkConfig describes one direction of a cell trunk.
type LinkConfig struct {
	RateBps    uint64        // line rate
	Delay      time.Duration // propagation delay
	QueueCells int           // per-class output queue limit, in cells
}

// DS3 returns the 45 Mb/s long-distance trunk profile of Xunet 2.
func DS3(delay time.Duration) LinkConfig {
	return LinkConfig{RateBps: 45_000_000, Delay: delay, QueueCells: 2048}
}

// oc12 returns the 622 Mb/s optically-amplified trunk profile.
func oc12(delay time.Duration) LinkConfig {
	return LinkConfig{RateBps: 622_000_000, Delay: delay, QueueCells: 4096}
}

// TAXI returns the host-interface attachment profile (the Hobbit board's
// 100 Mb/s-class local link).
func TAXI() LinkConfig {
	return LinkConfig{RateBps: 100_000_000, Delay: 10 * time.Microsecond, QueueCells: 2048}
}

// CellSink receives cells delivered to an attached endpoint.
type CellSink interface {
	ReceiveCell(c atm.Cell)
}

// runSink is a CellSink taking a run of cells in one call, the k-th
// arriving on vci at at+k·gap (each keeps the VCI it was sent with). The
// slice is the fabric's. A frame's last cell comes alone, on time.
type runSink interface {
	CellSink
	ReceiveRun(cells []atm.Cell, vci atm.VCI, at, gap time.Duration)
}

// perHopSetupCost is the virtual time charged per switch programmed
// during VC setup.
const perHopSetupCost = 500 * time.Microsecond

// Errors from the fabric.
var (
	errNoPath     = errors.New("xswitch: no path between endpoints")
	errNoVCI      = errors.New("xswitch: VCI space exhausted on link")
	errDupName    = errors.New("xswitch: duplicate element name")
	errNotRunning = errors.New("xswitch: element not attached")
	// ErrCrossShard reports a runtime SetupVC whose path would leave the
	// caller's shard. Cross-shard circuits must be provisioned at build
	// time, before SealCrossShard.
	ErrCrossShard = errors.New("xswitch: cross-shard VC setup after seal")
)

// node is anything cells move between: a switch or an endpoint.
type node interface {
	name() string
	// domainOf exposes the element's shard binding.
	domainOf() *domain
}

// domain binds a fabric element to its shard: the engine its events run
// on plus optional per-domain fault and trace planes that override the
// fabric-wide ones. In a flat (unsharded) fabric every element shares
// Fabric.Engine and the overrides stay nil.
type domain struct {
	eng    *sim.Engine
	faults *faults.Plane
	traceC *trace.Collector
}

// run is an entry of a trunk's rings, n cells of one VCI: at an input
// (the k-th arriving at at+k·gap), queued, or on the wire (arriving at
// the far node then). A cell is a run of one. The cells stay put from
// slot pos of their shard's arena, copied in where they enter and out
// where they leave. note marks a cell whose slot each hop must see (a
// watch follows it, or it is traced), always a run of its own.
type run struct {
	at, gap time.Duration
	n       int
	pos     int32
	vci     atm.VCI
	note    bool
}

// arrival is the arrival of the run's k-th cell.
func (s *run) arrival(k int) time.Duration { return s.at + time.Duration(k)*s.gap }

// before counts the run's cells arriving before the instant.
func (s *run) before(at time.Duration) int {
	if s.at >= at {
		return 0
	} else if s.n > 1 && s.gap > 0 {
		return int(min(time.Duration(s.n), (at-s.at-1)/s.gap+1))
	}
	return s.n
}

// cut moves the run's first k cells into h; s keeps the rest.
func (s *run) cut(k int, h *run) {
	h.at, h.gap, h.n, h.pos, h.vci, h.note = s.at, s.gap, k, s.pos, s.vci, s.note
	s.at, s.n, s.pos = s.arrival(k), s.n-k, s.pos+int32(k)
}

// push appends s to a ring, or extends the tail run s continues (next
// slots of its block, same VCI, on its arrival grid), field by field.
func push(r *sim.Ring[run], s *run) {
	if r.Len() > 0 {
		t := r.Tail()
		if t.vci == s.vci && t.pos+int32(t.n) == s.pos && s.pos%blockCells != 0 && !t.note && !s.note {
			g := t.gap
			if t.n == 1 {
				g = s.at - t.at
			}
			if (s.n == 1 || s.gap == g) && s.at == t.at+time.Duration(t.n)*g {
				t.gap, t.n = g, t.n+s.n
				return
			}
		}
	}
	p := r.PushSlot()
	p.at, p.gap, p.n, p.pos, p.vci, p.note = s.at, s.gap, s.n, s.pos, s.vci, s.note
}

// port is an input of the switch a trunk leaves, as the trunk sees it:
// feed is the input itself once a circuit routes from it onto the trunk,
// which then pulls it and reads its wire; q holds the input's cells for
// the trunk handed over ahead of that — by another output reading past
// them, or by an event.
type port struct {
	q    sim.Ring[run]
	feed *trunk
}

// trunk is one direction of a cell link between two nodes.
type trunk struct {
	fabric *Fabric
	from   node
	to     node
	sw     *Switch // to, if a switch
	fdom   *domain // from's, for its fault plane
	cfg    LinkConfig
	book   *qos.Book
	ser    time.Duration // per-cell serialization time (0 if RateBps is 0)

	// eng is the engine this trunk's events run on — the sending
	// element's shard. xeng is non-nil only for a boundary trunk, one
	// whose far end lives on a different shard: cells then cross as
	// pooled records posted at their exact arrival times, and the
	// trunk's propagation delay funds the shard group's lookahead.
	eng  *sim.Engine
	xeng *sim.Engine

	// sp's arena holds the cells in the trunk's rings, rsp's the cells
	// arriving at its far end: two shards' on a boundary, else one.
	sp, rsp *vcSpace

	// xmu guards xfree, the boundary trunk's record pool: records are
	// taken by the sending shard in transmit and returned by the
	// receiving shard in xdeliver, the one spot where two shards touch
	// one trunk.
	xmu   sync.Mutex
	xfree []*xcell

	// Cells reach the trunk pulled (DESIGN.md §9): ports has an entry per
	// input of the switch it leaves, upTo is how far its feeds have been
	// pulled, and port is its own index at the switch it feeds.
	ports []port
	port  int
	upTo  time.Duration

	// Three class queues (index qos.Class) served by WRR; qcells and queued count cells.
	queues   [3]sim.Ring[run]
	qcells   [3]int
	queued   int
	rrCredit [3]int

	// The scheduler is lazy. While the line is busy, nextPick is the
	// logical time of the next WRR pick; the picks are made by commit,
	// which everything that looks at the trunk calls first. txFn is a
	// boundary trunk's per-cell transmit event.
	busy     bool
	nextPick time.Duration
	txFn     func()

	// Cells on the wire, in arrival order. spanName is "from>to", the
	// name of this hop's trace spans.
	inflight sim.Ring[run]
	spanName string

	// VCI allocation on this trunk. pair is the reverse trunk of the
	// duplex link; the allocator is shared between both directions so
	// that a machine's send and receive VCIs never collide numerically
	// in its VCI-indexed protocol control block table.
	pair  *trunk
	alloc *atm.VCIAlloc

	// Counters for experiments, counted at commit: read them through
	// settle.
	Sent         uint64
	Dropped      uint64
	perClass     [3]uint64
	perClassDrop [3]uint64

	// class is the trunk's service-class table, indexed by the VCI a cell
	// is sent with (past the end, or never set, is BestEffort). xlate is
	// the translation table of the switch input port this trunk feeds,
	// indexed by the VCI a cell arrives with (out == nil is no entry);
	// the receiving switch owns it.
	class []qos.Class
	xlate []tabVal

	// Fault-plane state: fates is the trunk's own cell-fate stream, number
	// id; down marks a flapped-out trunk that drops every cell.
	id    int
	fates *faults.Cells
	down  bool

	// qPeak, when time-series collection is armed, accumulates the
	// between-tick queue-depth high-water mark (nil costs one pointer
	// check in accept; see BenchmarkTSeriesOverhead).
	qPeak *tseries.Peak

	// watches pools the watches this trunk starts, which weng — the far
	// end's shard — runs under lblArr; lblTx labels a boundary trunk's
	// transmit events (labels are 0 with no profiler attached).
	watches sim.FreeList[watch]
	weng    *sim.Engine
	lblTx   prof.LabelID
	lblArr  prof.LabelID
}

// wrrWeights drain CBR most aggressively, then VBR, then best effort —
// a two-level approximation of the hierarchical round robin of [17].
var wrrWeights = [3]int{1, 4, 16} // BestEffort, VBR, CBR (by qos.Class value)

func newTrunk(f *Fabric, from, to node, cfg LinkConfig) *trunk {
	if cfg.QueueCells <= 0 {
		cfg.QueueCells = 256
	}
	feng, teng := from.domainOf().eng, to.domainOf().eng
	f.trunks++
	t := &trunk{
		fabric:   f,
		from:     from,
		to:       to,
		fdom:     from.domainOf(),
		cfg:      cfg,
		eng:      feng,
		weng:     teng,
		sp:       f.spaces[feng],
		rsp:      f.spaces[teng],
		id:       f.trunks,
		book:     qos.NewBook(cfg.RateBps / 1000), // book in kb/s
		rrCredit: wrrWeights,
	}
	if cfg.RateBps > 0 {
		t.ser = time.Duration(uint64(atm.CellSize*8) * uint64(time.Second) / cfg.RateBps)
	}
	if feng != teng {
		t.xeng = teng
		t.txFn = t.transmitTick
		f.boundaries = true
	}
	if sw, ok := from.(*Switch); ok {
		t.ports = make([]port, len(sw.ins))
		sw.trunks = append(sw.trunks, t)
	}
	if sw, ok := to.(*Switch); ok {
		t.sw = sw
		t.port = len(sw.ins)
		sw.ins = append(sw.ins, t)
		for _, out := range sw.trunks {
			out.ports = append(out.ports, port{})
		}
	}
	t.spanName = from.name() + ">" + to.name()
	t.lblTx = feng.ProfLabel("xswitch.trunk.tx")
	t.lblArr = teng.ProfLabel("xswitch.arrival")
	return t
}

// faultPlane resolves the plane charged for this trunk's cells: the
// sending element's domain plane, else the fabric-wide one.
func (t *trunk) faultPlane() *faults.Plane {
	if fp := t.fdom.faults; fp != nil {
		return fp
	}
	return t.fabric.Faults
}

// traceCollector resolves the collector arrival spans are recorded to:
// the receiving element's domain collector, else the fabric-wide one.
// Recording happens at arrival, on the receiving shard, so the
// receiver's collector is the race-free and deterministic choice.
func (t *trunk) traceCollector() *trace.Collector {
	if tc := t.to.domainOf().traceC; tc != nil {
		return tc
	}
	return t.fabric.TraceC
}

// xcell is one pooled cross-shard cell record: fn is pre-bound to
// deliver the carried cell on the receiving shard and recycle the
// record, so the steady-state boundary crossing allocates nothing.
type xcell struct {
	t    *trunk
	cell atm.Cell
	fn   func()
}

func (t *trunk) getXCell() *xcell {
	t.xmu.Lock()
	if n := len(t.xfree); n > 0 {
		r := t.xfree[n-1]
		t.xfree[n-1] = nil
		t.xfree = t.xfree[:n-1]
		t.xmu.Unlock()
		return r
	}
	t.xmu.Unlock()
	r := &xcell{t: t}
	r.fn = func() { r.t.xdeliver(r) }
	return r
}

// xdeliver runs on the receiving shard at the cell's exact arrival
// time: the cell enters that shard's arena, with a watch if it has a
// stop ahead, and lands as advance would land it.
func (t *trunk) xdeliver(r *xcell) {
	s := run{at: t.xeng.Now(), n: 1, vci: r.cell.VCI, note: r.cell.TC.Sampled()}
	s.pos, _ = t.rsp.put([]atm.Cell{r.cell})
	rest, ok := t.stop(&r.cell, s.vci)
	var w *watch
	if ok {
		w = t.watch(s.vci, rest, s.at+rest)
		t.rsp.watches[s.pos], s.note = w, true
	}
	t.xmu.Lock()
	t.xfree = append(t.xfree, r)
	t.xmu.Unlock()
	t.land(&s)
	if w != nil {
		fireWatch(w)
	}
}

// commit brings the trunk up to the given instant: take, then the picks
// due before it.
func (t *trunk) commit(before time.Duration) {
	t.take(before)
	t.pickUntil(before)
}

// take accepts every cell reaching the trunk's switch before the given
// instant, in arrival order — lower input port first on a tie — each
// after the picks due before it, once the feeds have committed the
// picks that put those cells on their wires. The bound falls by a hop's
// serialization plus propagation per step up, so the pull ends on
// routing rings too, as many laps deep as the ring sat idle.
func (t *trunk) take(before time.Duration) {
	if before > t.upTo {
		for i := range t.ports {
			if f := t.ports[i].feed; f != nil {
				f.commit(before - f.ser - f.cfg.Delay)
			}
		}
		t.upTo = before
	}
	for {
		// The earliest run, up to the next input's first arrival (a lower
		// port wins a tie).
		var p *port
		var h *run
		at, end := before, before
		for i := range t.ports {
			if x := t.ports[i].head(t, before); x == nil {
				continue
			} else if x.at < at {
				if p != nil {
					end = min(end, at)
				}
				p, h, at = &t.ports[i], x, x.at
			} else {
				end = min(end, x.at+1)
			}
		}
		if p == nil {
			return
		}
		t.pickUntil(at)
		r := &p.q
		if r.Len() == 0 {
			r = &p.feed.inflight
		}
		var s run
		if h.cut(h.before(end), &s); h.n == 0 {
			r.Drop()
		}
		if r != &p.q {
			p.feed.pass(&s)
		}
		t.accept(&s)
	}
}

// head is the port's next run for t arriving before the given instant:
// q's head, else the first on the feed's wire routed to t — the cells
// ahead of it arriving before the instant land on the way, reaching
// their own trunks' queues.
func (p *port) head(t *trunk, before time.Duration) *run {
	if p.q.Len() > 0 {
		return p.q.Head()
	}
	for f := p.feed; f != nil && f.inflight.Len() > 0; {
		h := f.inflight.Head()
		if h.at >= before {
			return nil
		}
		if int(h.vci) < len(f.xlate) && f.xlate[h.vci].out == t {
			return h
		}
		var s run
		h.cut(h.before(before), &s)
		if h.n == 0 {
			f.inflight.Drop()
		}
		f.land(&s)
	}
	return nil
}

// accept takes a run arriving from s.at, after every pick before that
// instant, each cell after the picks before its own arrival: the fault
// plane and the queue limit may drop it, a corruption flips a payload
// byte (AAL5's CRC-32 rejects the frame at reassembly, where real
// hardware would), a traced cell is stamped with its hop entry time
// (pass records the hop as one span from it), and an idle line picks it
// at once. The run splits where these rules part its cells.
func (t *trunk) accept(s *run) {
	cls := qos.BestEffort
	if int(s.vci) < len(t.class) {
		cls = t.class[s.vci]
	}
	fp := t.faultPlane()
	if fp != nil && t.fates == nil {
		t.fates = fp.Cells(t.id)
	}
	for k := 0; fp != nil && k < s.n; k++ {
		c, at := &t.sp.cells[int(s.pos)+k], s.arrival(k)
		switch {
		case t.down:
			fp.TrunkDownDrop(c.TC, at)
		case t.fates.Drop(c.TC, at):
		default:
			if t.fates.Corrupt(c.TC, at) {
				c.Payload[0] ^= 0xA5
			}
			continue
		}
		var h run
		s.cut(k, &h)
		t.admit(cls, &h)
		s.cut(1, &h)
		t.drop(cls, &h)
		k = -1
	}
	t.admit(cls, s)
}

// admit queues or wires a run's cells, none lost, together where each
// meets the same rule: if the run comes slower than the line sends, on
// an idle line, all go on the wire; if no slower, on a busy line with
// room for all, all are queued — no pick before a cell's arrival could
// find it missing. Else one cell at a time.
func (t *trunk) admit(cls qos.Class, s *run) {
	var h run
	for s.n > 0 {
		if t.busy && t.nextPick < s.at {
			t.pickUntil(s.at)
		}
		if t.qcells[cls] >= t.cfg.QueueCells {
			s.cut(1, &h)
			t.drop(cls, &h)
			continue
		}
		var w *watch
		if s.note {
			if c := &t.sp.cells[s.pos]; c.TC.Sampled() {
				c.TCAt = s.at
			}
			w = t.sp.watches[s.pos]
		}
		if !t.busy {
			// Straight on the wire: the credits are full when a line is idle.
			t.busy, t.nextPick = true, s.at
			t.rrCredit[cls]--
			t.qPeak.Note(1)
			k := 1
			if s.gap > t.ser && t.xeng == nil {
				k = s.n // each cell finds the line idle again
			}
			s.cut(k, &h)
			t.wire(cls, &h, h.gap)
			if t.txFn != nil {
				t.eng.ScheduleL(t.ser, t.lblTx, t.txFn)
			}
			continue
		}
		k := s.n
		if s.gap > t.ser || t.qcells[cls]+k > t.cfg.QueueCells {
			k = 1
		}
		s.cut(k, &h)
		push(&t.queues[cls], &h)
		t.qcells[cls] += k
		t.queued += k
		// The depth the last cell finds, the run's deepest: the picks
		// before it served a cell per arrival at most.
		if depth, last := t.queued, h.arrival(k-1); t.ser > 0 && last > t.nextPick {
			t.qPeak.Note(int64(depth - int((last-t.nextPick+t.ser-1)/t.ser)))
		} else {
			t.qPeak.Note(int64(depth))
		}
		if w != nil {
			// The cells queued ahead in its class go first.
			w.at = t.nextPick + time.Duration(t.qcells[cls])*t.ser + t.cfg.Delay + w.rest
		}
	}
}

func (t *trunk) drop(cls qos.Class, s *run) {
	t.Dropped += uint64(s.n)
	t.perClassDrop[cls] += uint64(s.n)
	t.sp.free(s)
}

// pickUntil makes, in order, every WRR pick whose logical time lies
// before the given instant. A pick that finds the queues empty ends the
// busy period and, as a transmit event that found nothing to send did,
// replenishes the credits. The picks its class goes on to win — while
// its credit lasts, or past it alone in the queues — join it in a run.
func (t *trunk) pickUntil(before time.Duration) {
	for t.busy && t.nextPick < before {
		if t.queued == 0 {
			t.rrCredit = wrrWeights
			t.busy = false
			return
		}
		cls := t.pick()
		q := &t.queues[cls]
		h := q.Head()
		k := h.n
		if t.qcells[cls] < t.queued {
			k = min(k, t.rrCredit[cls]+1)
		}
		if k > 1 && t.ser > 0 {
			k = int(min(time.Duration(k), (before-t.nextPick-1)/t.ser+1))
		}
		for m := 1; m < k; m++ { // the picks after the first, as pick makes them
			if t.rrCredit[cls] == 0 {
				t.rrCredit = wrrWeights
			}
			t.rrCredit[cls]--
		}
		t.qcells[cls] -= k
		t.queued -= k
		var s run
		if h.cut(k, &s); h.n == 0 {
			q.Drop()
		}
		t.wire(cls, &s, t.ser)
	}
}

// settle commits the picks already in the past: a reader of the counters
// or queue depths then sees what a transmit event per cell had counted.
func (t *trunk) settle() { t.commit(t.eng.Now()) }

// wire puts a run of class cls on the wire, picked from nextPick gap
// apart, each cell to arrive one serialization and one propagation
// after its pick — on a boundary trunk, each in a pooled record posted
// to the far shard.
func (t *trunk) wire(cls qos.Class, s *run, gap time.Duration) {
	s.at, s.gap = t.nextPick+t.ser+t.cfg.Delay, gap
	if t.xeng != nil {
		// A boundary trunk picks at the pick's own instant (transmitTick),
		// so the post is ser+Delay ahead: at least the group lookahead,
		// which the testbed sizes from the smallest boundary-trunk delay.
		for k := 0; k < s.n; k++ {
			r := t.getXCell()
			r.cell = t.sp.cells[int(s.pos)+k]
			r.cell.VCI = s.vci
			t.eng.PostSized(t.xeng, s.arrival(k)-t.eng.Now(), atm.CellSize, r.fn)
		}
		t.sp.free(s)
	} else {
		push(&t.inflight, s)
		if s.note {
			if w := t.sp.watches[s.pos]; w != nil {
				w.at, w.onWire = s.at+w.rest, true
			}
		}
	}
	t.Sent += uint64(s.n)
	t.perClass[cls] += uint64(s.n)
	t.nextPick += time.Duration(s.n-1)*gap + t.ser
}

// transmitTick is a boundary trunk's transmit event, one per cell at the
// pick's own instant: a cross-shard post cannot be made late, so these
// picks are not left to the next observer.
func (t *trunk) transmitTick() {
	now := t.eng.Now()
	t.commit(now + 1)
	if t.busy {
		t.eng.ScheduleL(t.nextPick-now, t.lblTx, t.txFn)
	}
}

// advance hands the far node, in order, every cell reaching it before
// the given instant.
func (t *trunk) advance(before time.Duration) {
	t.commit(before - t.ser - t.cfg.Delay)
	for t.inflight.Len() > 0 && t.inflight.Head().at < before {
		h := t.inflight.Head()
		var s run
		h.cut(h.before(before), &s)
		if h.n == 0 {
			t.inflight.Drop()
		}
		t.land(&s)
	}
}

// land hands t.to a run arriving from s.at: a switch routes it to its
// next trunk's queue for this input, an endpoint to the sink, whole to
// a runSink.
func (t *trunk) land(s *run) {
	if t.sw != nil {
		if out := t.pass(s); out != nil {
			push(&out.ports[t.port].q, s)
		}
		return
	}
	ep, cells := t.to.(*Endpoint), t.rsp.cells[s.pos:][:s.n]
	if s.note {
		t.span(&cells[0], s.at)
	}
	if ep.sink != nil {
		ep.handing, ep.handAt = true, s.at
		if rs, ok := ep.sink.(runSink); ok {
			rs.ReceiveRun(cells, s.vci, s.at, s.gap)
		} else {
			for k := range cells {
				c := &cells[k]
				c.VCI, ep.handAt = s.vci, s.arrival(k)
				ep.sink.ReceiveCell(*c)
			}
		}
		ep.handing = false
	}
	t.rsp.free(s)
}

// pass takes a run through the switch t feeds — span, table lookup,
// VCI rewrite — and returns its next trunk, nil if it has no route.
func (t *trunk) pass(s *run) *trunk {
	if s.note {
		t.span(&t.rsp.cells[s.pos], s.at)
	}
	if int(s.vci) >= len(t.xlate) || t.xlate[s.vci].out == nil {
		t.sw.Unroutable += uint64(s.n)
		t.rsp.free(s)
		return nil
	}
	v := t.xlate[s.vci]
	s.vci = v.vci
	if s.note {
		if w := t.rsp.watches[s.pos]; w != nil {
			w.enter(v.out, &t.rsp.cells[s.pos], v.vci, s.at)
		}
	}
	return v.out
}

// span records the hop's span for the last cell of a traced frame:
// [hop entry .. arrival], the whole frame's transit of the link, made at
// the arrival instant (such a cell is watched hop by hop).
func (t *trunk) span(c *atm.Cell, at time.Duration) {
	if c.TC.Sampled() && c.EndOfFrame() {
		if tc := t.traceCollector(); tc != nil {
			tc.Record(c.TC, "xswitch", t.spanName, c.TCAt, at)
		}
	}
}

// pick chooses the next class queue to serve: highest class first until
// its WRR credit is spent, then the next, replenishing when all are
// exhausted. At least one queue must be non-empty.
func (t *trunk) pick() qos.Class {
	for pass := 0; pass < 2; pass++ {
		for cls := int(qos.CBR); cls >= int(qos.BestEffort); cls-- {
			if t.queues[cls].Len() > 0 && t.rrCredit[cls] > 0 {
				t.rrCredit[cls]--
				return qos.Class(cls)
			}
		}
		// Replenish credits and retry once.
		t.rrCredit = wrrWeights
	}
	panic("xswitch: pick with no queued cells")
}

// stop walks the route of a cell on trunk t with the given VCI to its
// next stop, where it must arrive at its own instant: the endpoint, for
// a frame's last cell; the next switch, for a traced frame's last cell;
// the switch before a boundary trunk, for any cell. It reports the
// serialization and propagation from t's far end to there, and whether
// the cell has a stop at all; one without is simply pulled along.
func (t *trunk) stop(c *atm.Cell, vci atm.VCI) (rest time.Duration, ok bool) {
	eom := c.EndOfFrame()
	if eom && c.TC.Sampled() {
		return 0, true
	}
	if !eom && !t.fabric.boundaries {
		return 0, false
	}
	for v := vci; int(v) < len(t.xlate) && t.xlate[v].out != nil; {
		e := t.xlate[v]
		if e.out.xeng != nil {
			return rest, true
		}
		rest += e.out.ser + e.out.cfg.Delay
		t, v = e.out, e.vci
	}
	return rest, eom
}

// watch follows a cell with a stop. Its event fires no later than the
// cell's arrival there and moves everything due on, hop by hop; short of
// the stop it re-arms at the tightened bound.
type watch struct {
	home   *trunk        // whose pool it came from; home.weng runs it
	t      *trunk        // carrying the cell; nil once it arrived or was lost
	vci    atm.VCI       // the cell's VCI on t
	at     time.Duration // no later than the cell's arrival at its stop
	rest   time.Duration // serialization and propagation from t's far end to the stop
	onWire bool          // picked on t: at is exact
}

// watch starts a watch on a cell entering t on vci whose stop is rest
// beyond t's far end and which cannot get there before at.
func (t *trunk) watch(vci atm.VCI, rest, at time.Duration) *watch {
	w := t.watches.Get()
	w.home, w.t, w.vci, w.at, w.rest, w.onWire = t, t, vci, at, rest, false
	return w
}

// enter moves the watch onto trunk t, to which a switch routed the cell
// at instant at, with the given VCI.
func (w *watch) enter(t *trunk, c *atm.Cell, vci atm.VCI, at time.Duration) {
	w.t, w.vci, w.onWire = t, vci, false
	w.rest, _ = t.stop(c, vci)
	w.at = at + t.ser + t.cfg.Delay + w.rest
}

func fireWatch(arg any) {
	w := arg.(*watch)
	eng := w.home.weng
	now := eng.Now()
	for t := w.t; t != nil && t.xeng == nil; t = w.t {
		// The cell's next trunk takes what reaches it by now (its picks at
		// now wait, as for a later arrival event this instant); an
		// endpoint's sink is handed its cells.
		if int(w.vci) < len(t.xlate) && t.xlate[w.vci].out != nil {
			next := t.xlate[w.vci].out
			next.take(now + 1)
			next.pickUntil(now)
		} else {
			t.advance(now + 1)
		}
		if w.t == t {
			// Not there yet. With the picks before now made, the arrival is
			// exact if the cell is on the wire; if not, it is picked no
			// earlier than now.
			t.commit(now)
			if !w.onWire {
				w.at = max(w.at, max(now, t.nextPick)+t.ser+t.cfg.Delay+w.rest)
			}
			eng.ScheduleArgL(w.at-now, w.home.lblArr, fireWatch, w)
			return
		}
	}
	if w.t != nil {
		w.t.commit(now + 1) // routed to a boundary trunk: it transmits in real time
	}
	w.home.watches.Put(w)
}

// Switch is one ATM cell switch.
type Switch struct {
	Name   string
	dom    domain
	trunks []*trunk // outgoing trunks; each input port's table is on its trunk
	ins    []*trunk // incoming trunks, by port

	// Unroutable counts cells with no table entry.
	Unroutable uint64
}

func (s *Switch) domainOf() *domain { return &s.dom }

// SetFaults overrides the fabric-wide fault plane for trunks this
// switch originates (nil restores the fabric-wide plane). Sharded
// testbeds give each domain its own seeded plane.
func (s *Switch) SetFaults(fp *faults.Plane) { s.dom.faults = fp }

// SetTrace overrides the fabric-wide trace collector for cells arriving
// at this switch.
func (s *Switch) SetTrace(tc *trace.Collector) { s.dom.traceC = tc }

// tabVal is one translation-table entry: the outgoing trunk and the VCI
// the cell leaves with.
type tabVal struct {
	out *trunk
	vci atm.VCI
}

func (s *Switch) name() string { return s.Name }

// Endpoint is an attachment point for a host interface.
type Endpoint struct {
	Addr   atm.Addr
	dom    domain
	sink   CellSink
	uplink *trunk // endpoint -> first switch
	// downlink is the reverse trunk (switch -> endpoint), which hands
	// cells to the sink.
	downlink *trunk
	// handing is set while a cell is with the sink; handAt is its
	// arrival time, which Now reads (a run's first, for a runSink).
	handing bool
	handAt  time.Duration
	// ix is the endpoint's number in the fabric, which indexes the
	// paths from it that SetupVC found, valid while pathsAt is the
	// fabric's topology generation. Only setups from this endpoint,
	// which run on its shard, touch them.
	ix      int
	paths   [][]pathStep
	pathsAt uint64
}

func (ep *Endpoint) domainOf() *domain { return &ep.dom }

// SetFaults overrides the fabric-wide fault plane for this endpoint's
// uplink transmissions.
func (ep *Endpoint) SetFaults(fp *faults.Plane) { ep.dom.faults = fp }

// SetTrace overrides the fabric-wide trace collector for cells arriving
// at this endpoint.
func (ep *Endpoint) SetTrace(tc *trace.Collector) { ep.dom.traceC = tc }

func (ep *Endpoint) name() string { return string(ep.Addr) }

// Now is the clock a sink stamps arrivals by: while a cell is with the
// sink, its arrival time — a frame's earlier cells reach the sink with
// its last (DESIGN.md §9) — and otherwise the engine's.
func (ep *Endpoint) Now() time.Duration {
	if ep.handing {
		return ep.handAt
	}
	return ep.dom.eng.Now()
}

// Settle hands the sink every cell that reached the endpoint before now;
// a reader of the sink's state calls it first. Across a shard boundary
// every cell lands by its own event anyway.
func (ep *Endpoint) Settle() {
	if d := ep.downlink; d.xeng == nil && !ep.handing {
		d.advance(ep.dom.eng.Now())
	}
}

// SendCell transmits one cell from the endpoint into the fabric.
func (ep *Endpoint) SendCell(c atm.Cell) { ep.SendCells([]atm.Cell{c}) }

// SendCells transmits cells from the endpoint into the fabric, in order,
// at this instant. A traced cell is a run of its own, as is one with a
// stop ahead (trunk.stop), which a watch follows (not on a boundary
// uplink). Other cells on a VCI form a run, which later ones extend.
func (ep *Endpoint) SendCells(cells []atm.Cell) {
	t := ep.uplink
	now := t.eng.Now()
	// The picks due strictly before now first (an uplink has no inputs):
	// one due exactly now waits for these cells (DESIGN.md §9, tie rule).
	if t.busy && t.nextPick < now {
		t.pickUntil(now)
	}
	needsWatch := func(c *atm.Cell) (rest time.Duration, ok bool) {
		rest, stop := t.stop(c, c.VCI)
		return rest, stop && t.xeng == nil
	}
	for len(cells) > 0 {
		c := &cells[0]
		rest, watched := needsWatch(c)
		s := run{at: now, n: 1, vci: c.VCI, note: watched || c.TC.Sampled()}
		for !s.note && s.n < len(cells) && cells[s.n].VCI == s.vci && !cells[s.n].TC.Sampled() {
			if _, w := needsWatch(&cells[s.n]); w {
				break
			}
			s.n++
		}
		s.pos, s.n = t.sp.put(cells[:s.n])
		cells = cells[s.n:]
		var w *watch
		if watched {
			w = t.watch(s.vci, rest, now+t.ser+t.cfg.Delay+rest)
			t.sp.watches[s.pos] = w
		}
		if t.accept(&s); w != nil {
			t.eng.ScheduleArgL(w.at-now, t.lblArr, fireWatch, w)
		}
	}
}

// Fabric is the whole ATM network: switches, endpoints and trunks.
type Fabric struct {
	Engine    *sim.Engine
	switches  map[string]*Switch
	endpoints map[atm.Addr]*Endpoint

	// spaces holds one VC namespace per shard engine, so concurrent
	// runtime SVC setup on different shards never touches shared state.
	// The map itself is built single-threaded (element creation) and is
	// read-only afterwards. IDs embed the shard in the high bits so the
	// namespaces stay disjoint.
	spaces map[*sim.Engine]*vcSpace

	// sealed marks the end of build-time provisioning: from then on a
	// SetupVC whose path leaves the caller's shard fails with
	// ErrCrossShard instead of mutating another shard's switch tables.
	sealed bool

	// Obs is the fabric's telemetry registry (the fabric is shared
	// infrastructure, so it does not belong to any one machine's
	// registry). Per-class cell counts and the active-VC level are
	// registered as read-through metrics over the trunk counters.
	Obs *obs.Registry

	// TraceC records per-hop cell transit spans for sampled traces
	// (nil means no tracing).
	TraceC *trace.Collector

	// Faults, when non-nil, injects Gilbert–Elliott burst cell loss,
	// payload corruption, and trunk flapping on switch trunks.
	Faults *faults.Plane

	// trunks counts the trunks built (a trunk's number keys its cell-fate
	// stream); boundaries is set once one crosses shards. topo moves on
	// with every switch, endpoint and trunk added, which drops the paths
	// endpoints hold.
	trunks     int
	boundaries bool
	topo       uint64
}

// vcSpace is one shard's state: its established circuits, and the arena
// its trunks' cells live in (see run) — the watch following each, per
// block the slots not yet free, and [fill, end), the block entering
// cells fill.
type vcSpace struct {
	vcs       int
	cells     []atm.Cell
	watches   []*watch
	live      []int
	idle      []int32
	fill, end int32
}

// blockCells is the arena's unit of allocation.
const blockCells = 64

// put copies cells (at most a block's worth) into the block being
// filled, a fresh one if they do not fit, and returns where they start
// and how many went.
func (sp *vcSpace) put(cells []atm.Cell) (pos int32, n int) {
	if int(sp.end-sp.fill) < min(len(cells), blockCells) {
		if sp.end > sp.fill {
			sp.free(&run{pos: sp.fill, n: int(sp.end - sp.fill)}) // the old block's unfilled slots
		}
		b := len(sp.live)
		if k := len(sp.idle); k > 0 {
			b, sp.idle = int(sp.idle[k-1]), sp.idle[:k-1]
			sp.live[b] = blockCells
		} else {
			sp.live = append(sp.live, blockCells)
			sp.cells = slices.Grow(sp.cells, blockCells)[:len(sp.cells)+blockCells]
			sp.watches = slices.Grow(sp.watches, blockCells)[:len(sp.watches)+blockCells]
		}
		sp.fill, sp.end = int32(b*blockCells), int32((b+1)*blockCells)
	}
	pos, n = sp.fill, copy(sp.cells[sp.fill:sp.end], cells)
	sp.fill += int32(n)
	return pos, n
}

// free takes back a run's slots once its cells have left — delivered,
// lost or posted across a boundary — ending a watched cell's watch.
func (sp *vcSpace) free(s *run) {
	if s.note {
		if w := sp.watches[s.pos]; w != nil {
			w.t, sp.watches[s.pos] = nil, nil
		}
	}
	b := s.pos / blockCells
	if sp.live[b] -= s.n; sp.live[b] == 0 {
		sp.idle = append(sp.idle, b)
	}
}

// ensureSpace creates the state of engine e's shard. Called only during
// single-threaded fabric construction, which it marks as a change of
// topology.
func (f *Fabric) ensureSpace(e *sim.Engine) {
	f.topo++
	if _, ok := f.spaces[e]; !ok {
		f.spaces[e] = &vcSpace{}
	}
}

// NewFabric returns an empty fabric on engine e.
func NewFabric(e *sim.Engine) *Fabric {
	f := &Fabric{
		Engine:    e,
		switches:  make(map[string]*Switch),
		endpoints: make(map[atm.Addr]*Endpoint),
		spaces:    make(map[*sim.Engine]*vcSpace),
		Obs:       obs.NewRegistry(),
	}
	f.ensureSpace(e)
	classNames := [3]string{qos.BestEffort: "be", qos.VBR: "vbr", qos.CBR: "cbr"}
	for cls := 0; cls < 3; cls++ {
		c := qos.Class(cls)
		f.Obs.Func("fabric.cells.sent."+classNames[cls], func() uint64 { return f.classStats().Sent[c] })
		f.Obs.Func("fabric.cells.dropped."+classNames[cls], func() uint64 { return f.classStats().Dropped[c] })
	}
	f.Obs.Func("fabric.vcs.active", func() uint64 { return uint64(f.ActiveVCs()) })
	return f
}

// SealCrossShard ends build-time provisioning: from now on SetupVC
// refuses paths that leave the caller's shard. Call after the topology
// and all cross-domain circuits are provisioned, before the group runs.
func (f *Fabric) SealCrossShard() { f.sealed = true }

// AddSwitch creates a switch on the fabric's default engine.
func (f *Fabric) AddSwitch(name string) (*Switch, error) {
	return f.AddSwitchOn(name, f.Engine)
}

// AddSwitchOn creates a switch whose events run on engine e — the shard
// placement entry point for sharded topologies.
func (f *Fabric) AddSwitchOn(name string, e *sim.Engine) (*Switch, error) {
	if _, dup := f.switches[name]; dup {
		return nil, fmt.Errorf("%w: switch %s", errDupName, name)
	}
	s := &Switch{Name: name, dom: domain{eng: e}}
	f.ensureSpace(e)
	f.switches[name] = s
	return s, nil
}

// mustAddSwitch is AddSwitch for scenario construction.
func (f *Fabric) mustAddSwitch(name string) *Switch {
	s, err := f.AddSwitch(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ConnectSwitches joins two switches with a duplex trunk.
func (f *Fabric) ConnectSwitches(a, b *Switch, cfg LinkConfig) { f.duplex(a, b, cfg) }

// duplex builds the two trunks of a link, which share one VCI allocator.
func (f *Fabric) duplex(a, b node, cfg LinkConfig) (ab, ba *trunk) {
	ab, ba = newTrunk(f, a, b, cfg), newTrunk(f, b, a, cfg)
	f.topo++
	ab.pair, ba.pair = ba, ab
	ab.alloc = atm.NewVCIAlloc(32)
	ba.alloc = ab.alloc
	return ab, ba
}

// StartFlapping schedules deterministic up/down flapping on every
// switch-to-switch trunk, driven by the fault plane's RNG: each duplex
// link stays up for a jittered mean-up period, drops every cell for the
// configured outage, and repeats until the cutoff, always ending in the
// up state so a quiesced run drains. Switch names are sorted so the
// flap schedule does not depend on map iteration order.
func (f *Fabric) StartFlapping(until time.Duration) {
	seen := make(map[*trunk]bool)
	for _, n := range slices.Sorted(maps.Keys(f.switches)) {
		for _, t := range f.switches[n].trunks {
			if _, ok := t.to.(*Switch); !ok {
				continue // endpoint links stay clean; flaps hit the backbone
			}
			if t.xeng != nil {
				// Boundary trunks stay up: a flap mutates both directions
				// of the duplex pair, and the pair's owner is another
				// shard. Chaos stays within domains.
				continue
			}
			if fp := t.faultPlane(); fp == nil || !fp.FlapEnabled() {
				continue
			}
			if seen[t] || seen[t.pair] {
				continue
			}
			seen[t] = true
			f.flapLink(t, until)
		}
	}
}

// flapLink runs one duplex link's flap cycle until the cutoff, on the
// trunk's own shard engine with the trunk's own fault plane.
func (f *Fabric) flapLink(t *trunk, until time.Duration) {
	fp := t.faultPlane()
	up := fp.NextUp()
	if t.eng.Now()+up >= until {
		return // next flap would land past the cutoff; stay up for good
	}
	// Settled first, both directions meet the cells before a toggle in
	// the old state.
	toggle := func(down bool) {
		t.settle()
		t.pair.settle()
		t.down, t.pair.down = down, down
	}
	t.eng.Schedule(up, func() {
		down := fp.DownFor()
		toggle(true)
		t.eng.Schedule(down, func() {
			toggle(false)
			f.flapLink(t, until)
		})
	})
}

// Attach connects an endpoint (host interface) to a switch on the
// fabric's default engine.
func (f *Fabric) Attach(addr atm.Addr, sink CellSink, sw *Switch, cfg LinkConfig) (*Endpoint, error) {
	return f.AttachOn(addr, sink, sw, cfg, f.Engine)
}

// AttachOn connects an endpoint whose events run on engine e. An
// endpoint normally shares its switch's shard; when it does not, the
// attachment trunks become shard boundaries, so their delay must fund
// the group lookahead.
func (f *Fabric) AttachOn(addr atm.Addr, sink CellSink, sw *Switch, cfg LinkConfig, e *sim.Engine) (*Endpoint, error) {
	if _, dup := f.endpoints[addr]; dup {
		return nil, fmt.Errorf("%w: endpoint %s", errDupName, addr)
	}
	ep := &Endpoint{Addr: addr, dom: domain{eng: e}, sink: sink, ix: len(f.endpoints)}
	f.ensureSpace(e)
	ep.uplink, ep.downlink = f.duplex(ep, sw, cfg)
	f.endpoints[addr] = ep
	return ep, nil
}

// Endpoint looks up an attachment by address.
func (f *Fabric) Endpoint(addr atm.Addr) *Endpoint { return f.endpoints[addr] }

// SetSink installs the cell receiver for an endpoint (used when the
// host interface is built after attachment).
func (ep *Endpoint) SetSink(s CellSink) { ep.sink = s }

// Lease is vci's latest grant at this endpoint, which stamps the per-VCI
// state above it; Holds reports whether l is still granted.
func (ep *Endpoint) Lease(vci atm.VCI) atm.Lease { return ep.uplink.alloc.Lease(vci) }
func (ep *Endpoint) Holds(l atm.Lease) bool      { return ep.uplink.alloc.Holds(l) }

// VC is an established simplex switched virtual circuit.
type VC struct {
	space *vcSpace
	From  atm.Addr
	To    atm.Addr
	QoS   qos.QoS
	// SrcVCI is the VCI the source endpoint transmits on; DstVCI is the
	// VCI cells carry when they arrive at the destination endpoint.
	SrcVCI atm.VCI
	DstVCI atm.VCI

	hops     []hop
	released bool
}

type hop struct {
	sw      *Switch
	in      *trunk
	inVCI   atm.VCI
	out     *trunk
	outVCI  atm.VCI
	bookKey uint32
}

// pathStep pairs a switch with the trunk used to reach the next element.
type pathStep struct {
	sw  *Switch
	out *trunk
}

// path returns the switch sequence from one endpoint to another and the
// outgoing trunk each uses: the one findPath found for the pair, until
// the topology changes.
func (f *Fabric) path(from, to *Endpoint) ([]pathStep, error) {
	if from.pathsAt != f.topo {
		clear(from.paths)
		from.pathsAt = f.topo
	}
	if to.ix < len(from.paths) && from.paths[to.ix] != nil {
		return from.paths[to.ix], nil
	}
	steps, err := f.findPath(from, to)
	if err == nil {
		from.paths = append(from.paths, make([][]pathStep, max(0, to.ix+1-len(from.paths)))...)
		from.paths[to.ix] = steps
	}
	return steps, err
}

// findPath runs BFS from the source endpoint's switch to the
// destination endpoint, returning the switch sequence and the outgoing
// trunk each uses.
func (f *Fabric) findPath(from, to *Endpoint) ([]pathStep, error) {
	first, ok := from.uplink.to.(*Switch)
	if !ok {
		return nil, errNoPath
	}
	type queued struct {
		sw   *Switch
		path []pathStep
	}
	visited := map[*Switch]bool{first: true}
	q := []queued{{sw: first}}
	for len(q) > 0 {
		cur := q[0]
		q = q[1:]
		for _, t := range cur.sw.trunks {
			switch nxt := t.to.(type) {
			case *Endpoint:
				if nxt == to {
					return append(cur.path, pathStep{sw: cur.sw, out: t}), nil
				}
			case *Switch:
				if !visited[nxt] {
					visited[nxt] = true
					np := append(append([]pathStep(nil), cur.path...), pathStep{sw: cur.sw, out: t})
					q = append(q, queued{sw: nxt, path: np})
				}
			}
		}
	}
	return nil, errNoPath
}

// SetupVC establishes a simplex switched virtual circuit from one
// endpoint to another with the given QoS, allocating a VCI on every
// hop, booking admission control on every trunk, and programming each
// switch's translation table. Virtual time advances by the per-hop
// programming cost. On any failure the partial setup is unwound.
func (f *Fabric) SetupVC(from, to atm.Addr, q qos.QoS) (*VC, error) {
	src, ok := f.endpoints[from]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNotRunning, from)
	}
	dst, ok := f.endpoints[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNotRunning, to)
	}
	if f.sealed && src.dom.eng != dst.dom.eng {
		return nil, fmt.Errorf("%w: %s -> %s", ErrCrossShard, from, to)
	}
	steps, err := f.path(src, dst)
	if err != nil {
		return nil, err
	}
	if f.sealed {
		// A same-shard pair could still be routed across a boundary by
		// BFS in a pathological topology; refuse rather than touch
		// another shard's tables and allocators at runtime.
		for _, st := range steps {
			if st.sw.dom.eng != src.dom.eng {
				return nil, fmt.Errorf("%w: path via %s", ErrCrossShard, st.sw.Name)
			}
		}
	}
	space := f.spaces[src.dom.eng]
	vc := &VC{space: space, From: from, To: to, QoS: q, hops: make([]hop, 0, len(steps)+1)}

	// Trunk sequence: src.uplink, then each step's outgoing trunk.
	in := src.uplink
	inVCI, err := f.admitHop(vc, in, q)
	if err != nil {
		vc.unwind()
		return nil, err
	}
	vc.SrcVCI = inVCI
	for _, st := range steps {
		outVCI, err := f.admitHop(vc, st.out, q)
		if err != nil {
			vc.unwind()
			return nil, err
		}
		in.xlate = atm.Grow(in.xlate, inVCI)
		in.xlate[inVCI] = tabVal{out: st.out, vci: outVCI}
		if in.xeng == nil { // a boundary input's cells land by event
			st.out.ports[in.port].feed = in
		}
		vc.hops[len(vc.hops)-1].sw = st.sw
		vc.hops[len(vc.hops)-1].in = in
		vc.hops[len(vc.hops)-1].inVCI = inVCI
		in, inVCI = st.out, outVCI
	}
	vc.DstVCI = inVCI
	space.vcs++
	return vc, nil
}

// SetupCost is the virtual time a caller should charge for programming
// the circuit's switches (the signaling process sleeps this long; the
// fabric itself cannot advance the clock synchronously).
func (vc *VC) SetupCost() time.Duration {
	nswitches := 0
	for _, h := range vc.hops {
		if h.sw != nil {
			nswitches++
		}
	}
	return time.Duration(nswitches) * perHopSetupCost
}

// admitHop books one trunk and allocates a VCI on it, recording the hop
// for release. It settles the trunk first, so the cells that reached it
// — and, through the pull, its switch, whose input table SetupVC writes
// next — meet the tables as they were.
func (f *Fabric) admitHop(vc *VC, t *trunk, q qos.QoS) (atm.VCI, error) {
	t.settle()
	key, err := t.book.Admit(q)
	if err != nil {
		return 0, err
	}
	v := t.alloc.Alloc().VCI
	if v == 0 {
		t.book.Release(key)
		return 0, errNoVCI
	}
	t.class = atm.Grow(t.class, v)
	t.class[v] = q.Class
	vc.hops = append(vc.hops, hop{out: t, outVCI: v, bookKey: key})
	return v, nil
}

// unwind releases a partially built VC, settling each hop first (see
// admitHop).
func (vc *VC) unwind() {
	for _, h := range vc.hops {
		h.out.settle()
		if h.sw != nil {
			h.in.xlate[h.inVCI] = tabVal{}
		}
		h.out.class[h.outVCI] = qos.BestEffort
		h.out.alloc.Free(h.outVCI)
		h.out.book.Release(h.bookKey)
	}
	vc.hops = nil
}

// Release tears the circuit down, freeing VCIs, bookings and table
// entries. It is idempotent.
func (vc *VC) Release() {
	if vc.released {
		return
	}
	vc.released = true
	vc.unwind()
	vc.space.vcs--
}

// ActiveVCs reports the number of established circuits across every
// shard's namespace. During a sharded run this is a report-boundary
// read; mid-run it is only exact for the caller's own shard.
func (f *Fabric) ActiveVCs() int {
	n := 0
	for _, sp := range f.spaces {
		n += sp.vcs
	}
	return n
}

// TrunkStats sums (sent, dropped) cells over every trunk in the fabric.
func (f *Fabric) TrunkStats() (sent, dropped uint64) {
	s := f.classStats()
	for cls := 0; cls < 3; cls++ {
		sent += s.Sent[cls]
		dropped += s.Dropped[cls]
	}
	return sent, dropped
}

// classCellStats breaks fabric cell counts down by service class
// (indexed by qos.Class), for the scheduler-protection experiments.
type classCellStats struct {
	Sent    [3]uint64
	Dropped [3]uint64
}

// RegisterTSeries tracks in st the congestion signals of every trunk
// whose sending element runs on engine own: cells/drops (per-tick
// rates), utilization in basis points (cell delta x serialization time
// / tick interval), and queue depth with the between-tick high-water
// captured by the qPeak hook armed here. A trunk's counters and queues
// are mutated only by its sending shard, so a per-shard store scraping
// only owned trunks reads race-free. Enumeration is sorted (switch
// names, then endpoint addresses) so series registration order — and
// therefore the export — is deterministic; switch trunk lists already
// include endpoint downlinks, so only uplinks need the endpoint pass.
func (f *Fabric) RegisterTSeries(st *tseries.Store, own *sim.Engine) {
	if st == nil {
		return
	}
	for _, n := range slices.Sorted(maps.Keys(f.switches)) {
		for _, t := range f.switches[n].trunks {
			if t.eng == own {
				f.trackTrunk(st, t)
			}
		}
	}
	for _, a := range slices.Sorted(maps.Keys(f.endpoints)) {
		if up := f.endpoints[a].uplink; up.eng == own {
			f.trackTrunk(st, up)
		}
	}
}

func (f *Fabric) trackTrunk(st *tseries.Store, t *trunk) {
	prefix := "fabric.trunk." + t.from.name() + ">" + t.to.name() + "."
	sent := func() uint64 { t.settle(); return t.Sent }
	st.TrackRateFunc(prefix+"cells", sent, 0, 0)
	st.TrackRateFunc(prefix+"drops", func() uint64 { t.settle(); return t.Dropped }, 0, 0)
	if t.ser > 0 && st.Interval() > 0 {
		// 10000 x (cells x ser) / interval = line utilization in basis
		// points, an integer so exports stay byte-exact.
		st.TrackRateFunc(prefix+"util_bp", sent, int64(t.ser)*10000, int64(st.Interval()))
	}
	if t.qPeak == nil {
		t.qPeak = &tseries.Peak{}
	}
	peak := t.qPeak
	st.TrackGaugeFunc(prefix+"qdepth", func() (int64, int64) {
		t.settle()
		depth := int64(t.queued)
		hi := peak.Take()
		if depth > hi {
			hi = depth
		}
		return depth, hi
	})
}

// classStats sums per-class cell counts over every trunk: the switches'
// (endpoint downlinks among them) and the endpoint uplinks.
func (f *Fabric) classStats() classCellStats {
	var out classCellStats
	f.eachTrunk(func(t *trunk) {
		t.settle()
		for cls := 0; cls < 3; cls++ {
			out.Sent[cls] += t.perClass[cls]
			out.Dropped[cls] += t.perClassDrop[cls]
		}
	})
	return out
}

// eachTrunk calls fn on every trunk: each switch's, downlinks among
// them, then each endpoint's uplink.
func (f *Fabric) eachTrunk(fn func(*trunk)) {
	for _, sw := range f.switches {
		for _, t := range sw.trunks {
			fn(t)
		}
	}
	for _, ep := range f.endpoints {
		fn(ep.uplink)
	}
}

// Audit states the trunks' watch lists: every watched cell has reached
// its stop or been lost.
func (f *Fabric) Audit(check sim.Audit) {
	n := 0
	f.eachTrunk(func(t *trunk) { n += t.watches.Outstanding() })
	check("watches", n, 0)
}
