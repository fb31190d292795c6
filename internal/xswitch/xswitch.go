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
	"sort"
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

// OC12 returns the 622 Mb/s optically-amplified trunk profile.
func OC12(delay time.Duration) LinkConfig {
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

// perHopSetupCost is the virtual time charged per switch programmed
// during VC setup.
const perHopSetupCost = 500 * time.Microsecond

// Errors from the fabric.
var (
	ErrNoPath     = errors.New("xswitch: no path between endpoints")
	ErrNoVCI      = errors.New("xswitch: VCI space exhausted on link")
	ErrUnknownVC  = errors.New("xswitch: unknown virtual circuit")
	ErrDupName    = errors.New("xswitch: duplicate element name")
	ErrNotRunning = errors.New("xswitch: element not attached")
	// ErrCrossShard reports a runtime SetupVC whose path would leave the
	// caller's shard. Cross-shard circuits must be provisioned at build
	// time, before SealCrossShard.
	ErrCrossShard = errors.New("xswitch: cross-shard VC setup after seal")
)

// node is anything cells move between: a switch or an endpoint.
type node interface {
	name() string
	// inject receives a cell arriving over link l; the cell is good only
	// for the call (a switch queueing it on its output trunk copies it).
	inject(l *trunk, c *atm.Cell)
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

// trunk is one direction of a cell link between two nodes.
type trunk struct {
	fabric *Fabric
	from   node
	to     node
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

	// xmu guards xfree, the boundary trunk's record pool: records are
	// taken by the sending shard in transmit and returned by the
	// receiving shard in xdeliver, the one spot where two shards touch
	// one trunk.
	xmu   sync.Mutex
	xfree []*xcell

	// Three class queues (index qos.Class) served by WRR; queued is
	// their total length.
	queues   [3]sim.Ring[atm.Cell]
	queued   int
	rrCredit [3]int

	// The scheduler is lazy (DESIGN.md §9). While the line is busy,
	// nextPick is the logical time of the next WRR pick; the picks are
	// made by commit, which everything that looks at the trunk calls
	// first. txFn is a boundary trunk's per-cell transmit event.
	busy     bool
	nextPick time.Duration
	txFn     func()

	// In-flight cells awaiting delivery at t.to, ordered by arrival
	// time. One self-rescheduling pooled event (delivFn) fires at each
	// exact per-cell arrival time, so receivers observe timing identical
	// to per-cell propagation events. delivOn holds whenever a cell is
	// queued or in flight on an interior trunk.
	inflight sim.Ring[flightCell]
	delivOn  bool
	delivFn  func()
	spanName string // "from>to", the name of this hop's trace spans

	// VCI allocation on this trunk. pair is the reverse trunk of the
	// duplex link; the allocator is shared between both directions so
	// that a machine's send and receive VCIs never collide numerically
	// in its VCI-indexed protocol control block table.
	pair  *trunk
	alloc *atm.VCIAlloc

	// Counters for experiments. Sent and perClass count committed picks:
	// read them through settle.
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

	// Fault-plane state (used only when fabric.Faults is non-nil):
	// geBad is the trunk's Gilbert–Elliott burst-loss state, down marks
	// a flapped-out trunk that drops every cell.
	geBad bool
	down  bool

	// qPeak, when time-series collection is armed, accumulates the
	// between-tick queue-depth high-water mark (nil costs one pointer
	// check in send; see BenchmarkTSeriesOverhead).
	qPeak *tseries.Peak

	// Execution-profiler attribution labels, interned at construction
	// (0 — the root label — when no profiler is attached): transmit
	// events vs. delivery events, so the profile separates serialization
	// scheduling from cell injection.
	lblTx    prof.LabelID
	lblDeliv prof.LabelID
}

// wrrWeights drain CBR most aggressively, then VBR, then best effort —
// a two-level approximation of the hierarchical round robin of [17].
var wrrWeights = [3]int{1, 4, 16} // BestEffort, VBR, CBR (by qos.Class value)

// flightCell is a transmitted cell awaiting delivery at the far node.
type flightCell struct {
	cell atm.Cell
	at   time.Duration // exact virtual arrival time
}

func newTrunk(f *Fabric, from, to node, cfg LinkConfig) *trunk {
	if cfg.QueueCells <= 0 {
		cfg.QueueCells = 256
	}
	feng, teng := from.domainOf().eng, to.domainOf().eng
	t := &trunk{
		fabric:   f,
		from:     from,
		to:       to,
		cfg:      cfg,
		eng:      feng,
		book:     qos.NewBook(cfg.RateBps / 1000), // book in kb/s
		rrCredit: wrrWeights,
	}
	if cfg.RateBps > 0 {
		t.ser = time.Duration(uint64(atm.CellSize*8) * uint64(time.Second) / cfg.RateBps)
	}
	if feng != teng {
		t.xeng = teng
		t.txFn = t.transmitTick
	}
	t.delivFn = t.deliver
	t.spanName = from.name() + ">" + to.name()
	t.lblTx = feng.ProfLabel("xswitch.trunk.tx")
	t.lblDeliv = feng.ProfLabel("xswitch.trunk.deliver")
	return t
}

// faultPlane resolves the plane charged for this trunk's cells: the
// sending element's domain plane, else the fabric-wide one.
func (t *trunk) faultPlane() *faults.Plane {
	if fp := t.from.domainOf().faults; fp != nil {
		return fp
	}
	return t.fabric.Faults
}

// traceCollector resolves the collector arrival spans are recorded to:
// the receiving element's domain collector, else the fabric-wide one.
// Recording happens at delivery, on the receiving shard, so the
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
// time: trace the frame span, inject, recycle the record.
func (t *trunk) xdeliver(r *xcell) {
	c := &r.cell
	if c.TC.Sampled() && c.EndOfFrame() {
		if tc := t.traceCollector(); tc != nil {
			tc.Record(c.TC, "xswitch", t.spanName, c.TCAt, t.xeng.Now())
		}
	}
	t.to.inject(t, c)
	t.xmu.Lock()
	t.xfree = append(t.xfree, r)
	t.xmu.Unlock()
}

// allocVCI reserves an unused VCI on this trunk (and its reverse
// direction: the free-list allocator is shared across the duplex pair).
func (t *trunk) allocVCI() (atm.VCI, error) {
	if t.alloc == nil { // trunk wired up without pairing (tests)
		t.alloc = atm.NewVCIAlloc(32)
	}
	v := t.alloc.Alloc()
	if v == 0 {
		return 0, ErrNoVCI
	}
	return v, nil
}

func (t *trunk) freeVCI(v atm.VCI) {
	t.class[v] = qos.BestEffort
	if t.alloc != nil {
		t.alloc.Free(v)
	}
}

// tabSet stores val at tab[v], growing the VCI-indexed table to hold it.
func tabSet[T any](tab []T, v atm.VCI, val T) []T {
	if int(v) >= len(tab) {
		tab = append(tab, make([]T, int(v)+1-len(tab))...)
	}
	tab[v] = val
	return tab
}

// send enqueues a copy of a cell for transmission, classifying it by its
// VCI's service class. Queue overflow drops the cell (AAL5 detects the
// loss). Picks due strictly before now are committed first, so the
// overflow check and the WRR order see the queues as a transmit event
// per cell would have left them; a pick due exactly now waits for this
// cell, whose event was scheduled before that instant's transmit event
// would have been (propagation outlasts serialization on every profile).
func (t *trunk) send(c *atm.Cell) {
	now := t.eng.Now()
	t.commit(now)
	cls := qos.BestEffort
	if int(c.VCI) < len(t.class) {
		cls = t.class[c.VCI]
	}
	corrupt := false
	if fp := t.faultPlane(); fp != nil {
		if t.down {
			t.drop(cls)
			fp.TrunkDownDrop(c.TC)
			return
		}
		if fp.CellDrop(&t.geBad, c.TC) {
			t.drop(cls)
			return
		}
		corrupt = fp.CellCorrupt(c.TC)
	}
	q := &t.queues[cls]
	if q.Len() >= t.cfg.QueueCells {
		t.drop(cls)
		return
	}
	qc := q.PushSlot()
	*qc = *c
	if corrupt {
		// Only the queued copy is flipped; the AAL5 CRC-32 rejects the
		// frame at reassembly, exactly where real hardware would.
		qc.Payload[0] ^= 0xA5
	}
	if qc.TC.Sampled() {
		// Mark the hop entry time so deliver can record this trunk's
		// queueing + serialization + propagation as one span.
		qc.TCAt = now
	}
	t.queued++
	t.qPeak.Note(int64(t.queued))
	if !t.busy {
		// An idle line takes the cell the instant it is queued.
		t.busy, t.nextPick = true, now
		t.transmit(t.pick())
		if t.txFn != nil {
			t.eng.ScheduleL(t.ser, t.lblTx, t.txFn)
		}
	}
	if t.xeng == nil && !t.delivOn {
		t.delivOn = true
		t.eng.ScheduleL(t.nextArrival()-now, t.lblDeliv, t.delivFn)
	}
}

func (t *trunk) drop(cls qos.Class) {
	t.Dropped++
	t.perClassDrop[cls]++
}

// commit makes, in order, every WRR pick whose logical time lies before
// the given instant. A pick that finds the queues empty ends the busy
// period and, as a transmit event that found nothing to send did,
// replenishes the credits.
func (t *trunk) commit(before time.Duration) {
	for t.busy && t.nextPick < before {
		if t.queued == 0 {
			t.rrCredit = wrrWeights
			t.busy = false
			return
		}
		t.transmit(t.pick())
	}
}

// settle commits the picks already in the past: a reader of the counters
// or queue depths then sees what a transmit event per cell had counted.
func (t *trunk) settle() { t.commit(t.eng.Now()) }

// transmit puts the head cell of class cls on the wire at nextPick: it
// moves straight from its queue into the in-flight ring (or, on a
// boundary trunk, into a pooled record posted to the far shard) with
// its exact arrival time, one serialization and one propagation later.
func (t *trunk) transmit(cls qos.Class) {
	q := &t.queues[cls]
	at := t.nextPick + t.ser + t.cfg.Delay
	if t.xeng != nil {
		// A boundary trunk picks at the pick's own instant (transmitTick),
		// so the post is ser+Delay ahead: at least the group lookahead,
		// which the testbed sizes from the smallest boundary-trunk delay.
		r := t.getXCell()
		r.cell = *q.Head()
		t.eng.PostSized(t.xeng, at-t.eng.Now(), atm.CellSize, r.fn)
	} else {
		fc := t.inflight.PushSlot()
		fc.cell, fc.at = *q.Head(), at
	}
	q.Drop()
	t.queued--
	t.Sent++
	t.perClass[cls]++
	t.nextPick += t.ser
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

// nextArrival is when the next cell reaches t.to: the in-flight head's
// arrival, else that of the next pick. A cell must be queued or in
// flight.
func (t *trunk) nextArrival() time.Duration {
	if t.inflight.Len() > 0 {
		return t.inflight.Head().at
	}
	return t.nextPick + t.ser + t.cfg.Delay
}

// deliver fires at the arrival time of the next cell: it commits the
// picks whose cells are due, injects every cell due now, and re-arms
// itself for the next arrival.
func (t *trunk) deliver() {
	e := t.eng
	now := e.Now()
	t.commit(now - t.ser - t.cfg.Delay + 1)
	for t.inflight.Len() > 0 {
		fc := t.inflight.Head()
		if fc.at > now {
			break
		}
		if fc.cell.TC.Sampled() && fc.cell.EndOfFrame() {
			// One span per AAL5 frame per trunk, recorded on the frame's
			// final cell: [hop entry .. last-cell arrival] covers the
			// whole frame's transit of this link.
			if tc := t.traceCollector(); tc != nil {
				tc.Record(fc.cell.TC, "xswitch", t.spanName, fc.cell.TCAt, now)
			}
		}
		t.to.inject(t, &fc.cell)
		t.inflight.Drop()
	}
	if t.inflight.Len() > 0 || t.queued > 0 {
		e.ScheduleL(t.nextArrival()-now, t.lblDeliv, t.delivFn)
	} else {
		t.delivOn = false
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

// Switch is one ATM cell switch.
type Switch struct {
	Name   string
	dom    domain
	trunks []*trunk // outgoing trunks; each input port's table is on its trunk

	// Switched counts cells relayed; Unroutable counts cells with no
	// table entry.
	Switched   uint64
	Unroutable uint64
}

func (s *Switch) domainOf() *domain { return &s.dom }

// Eng returns the engine this switch's events run on.
func (s *Switch) Eng() *sim.Engine { return s.dom.eng }

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

// inject switches an arriving cell: index the input port's table by
// VCI, translate and forward.
func (s *Switch) inject(l *trunk, c *atm.Cell) {
	if int(c.VCI) >= len(l.xlate) || l.xlate[c.VCI].out == nil {
		s.Unroutable++
		return
	}
	v := l.xlate[c.VCI]
	s.Switched++
	c.VCI = v.vci
	v.out.send(c)
}

// Endpoint is an attachment point for a host interface.
type Endpoint struct {
	Addr   atm.Addr
	dom    domain
	sink   CellSink
	uplink *trunk // endpoint -> first switch
	// downlink is the reverse trunk (switch -> endpoint); kept for
	// VCI bookkeeping on the receiving side.
	downlink *trunk
}

func (ep *Endpoint) domainOf() *domain { return &ep.dom }

// Eng returns the engine this endpoint's events run on.
func (ep *Endpoint) Eng() *sim.Engine { return ep.dom.eng }

// SetFaults overrides the fabric-wide fault plane for this endpoint's
// uplink transmissions.
func (ep *Endpoint) SetFaults(fp *faults.Plane) { ep.dom.faults = fp }

// SetTrace overrides the fabric-wide trace collector for cells arriving
// at this endpoint.
func (ep *Endpoint) SetTrace(tc *trace.Collector) { ep.dom.traceC = tc }

func (ep *Endpoint) name() string { return string(ep.Addr) }

func (ep *Endpoint) inject(l *trunk, c *atm.Cell) {
	if ep.sink != nil {
		ep.sink.ReceiveCell(*c)
	}
}

// SendCell transmits one cell from the endpoint into the fabric.
func (ep *Endpoint) SendCell(c atm.Cell) { ep.uplink.send(&c) }

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
}

type vcID uint64

// vcSpace is one shard's VC namespace.
type vcSpace struct {
	vcs  map[vcID]*VC
	next uint64
	base uint64
}

// ensureSpace creates the VC namespace for engine e. Called only during
// single-threaded fabric construction; base embeds the shard index so
// IDs from different shards never collide.
func (f *Fabric) ensureSpace(e *sim.Engine) {
	if _, ok := f.spaces[e]; !ok {
		f.spaces[e] = &vcSpace{vcs: make(map[vcID]*VC), base: uint64(e.ShardID()+1) << 48}
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
		f.Obs.Func("fabric.cells.sent."+classNames[cls], func() uint64 { return f.ClassStats().Sent[c] })
		f.Obs.Func("fabric.cells.dropped."+classNames[cls], func() uint64 { return f.ClassStats().Dropped[c] })
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
		return nil, fmt.Errorf("%w: switch %s", ErrDupName, name)
	}
	s := &Switch{Name: name, dom: domain{eng: e}}
	f.ensureSpace(e)
	f.switches[name] = s
	return s, nil
}

// MustAddSwitch is AddSwitch for scenario construction.
func (f *Fabric) MustAddSwitch(name string) *Switch {
	s, err := f.AddSwitch(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ConnectSwitches joins two switches with a duplex trunk.
func (f *Fabric) ConnectSwitches(a, b *Switch, cfg LinkConfig) {
	ab := newTrunk(f, a, b, cfg)
	ba := newTrunk(f, b, a, cfg)
	ab.pair, ba.pair = ba, ab
	ab.alloc = atm.NewVCIAlloc(32)
	ba.alloc = ab.alloc
	a.trunks = append(a.trunks, ab)
	b.trunks = append(b.trunks, ba)
}

// StartFlapping schedules deterministic up/down flapping on every
// switch-to-switch trunk, driven by the fault plane's RNG: each duplex
// link stays up for a jittered mean-up period, drops every cell for the
// configured outage, and repeats until the cutoff, always ending in the
// up state so a quiesced run drains. Switch names are sorted so the
// flap schedule does not depend on map iteration order.
func (f *Fabric) StartFlapping(until time.Duration) {
	names := make([]string, 0, len(f.switches))
	for n := range f.switches {
		names = append(names, n)
	}
	sort.Strings(names)
	seen := make(map[*trunk]bool)
	for _, n := range names {
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
	t.eng.Schedule(up, func() {
		down := fp.DownFor()
		t.down, t.pair.down = true, true
		t.eng.Schedule(down, func() {
			t.down, t.pair.down = false, false
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
		return nil, fmt.Errorf("%w: endpoint %s", ErrDupName, addr)
	}
	ep := &Endpoint{Addr: addr, dom: domain{eng: e}, sink: sink}
	f.ensureSpace(e)
	up := newTrunk(f, ep, sw, cfg)
	down := newTrunk(f, sw, ep, cfg)
	up.pair, down.pair = down, up
	up.alloc = atm.NewVCIAlloc(32)
	down.alloc = up.alloc
	ep.uplink = up
	ep.downlink = down
	sw.trunks = append(sw.trunks, down)
	f.endpoints[addr] = ep
	return ep, nil
}

// Endpoint looks up an attachment by address.
func (f *Fabric) Endpoint(addr atm.Addr) *Endpoint { return f.endpoints[addr] }

// SetSink installs the cell receiver for an endpoint (used when the
// host interface is built after attachment).
func (ep *Endpoint) SetSink(s CellSink) { ep.sink = s }

// VC is an established simplex switched virtual circuit.
type VC struct {
	id    vcID
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

// findPath runs BFS from the source endpoint's switch to the
// destination endpoint, returning the switch sequence and the outgoing
// trunk each uses.
func (f *Fabric) findPath(from, to *Endpoint) ([]pathStep, error) {
	first, ok := from.uplink.to.(*Switch)
	if !ok {
		return nil, ErrNoPath
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
	return nil, ErrNoPath
}

// SetupVC establishes a simplex switched virtual circuit from one
// endpoint to another with the given QoS, allocating a VCI on every
// hop, booking admission control on every trunk, and programming each
// switch's translation table. Virtual time advances by the per-hop
// programming cost. On any failure the partial setup is unwound.
func (f *Fabric) SetupVC(from, to atm.Addr, q qos.QoS) (*VC, error) {
	src, ok := f.endpoints[from]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, from)
	}
	dst, ok := f.endpoints[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, to)
	}
	if f.sealed && src.dom.eng != dst.dom.eng {
		return nil, fmt.Errorf("%w: %s -> %s", ErrCrossShard, from, to)
	}
	steps, err := f.findPath(src, dst)
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
	space.next++
	vc := &VC{id: vcID(space.base | space.next), space: space, From: from, To: to, QoS: q}

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
		in.xlate = tabSet(in.xlate, inVCI, tabVal{out: st.out, vci: outVCI})
		vc.hops[len(vc.hops)-1].sw = st.sw
		vc.hops[len(vc.hops)-1].in = in
		vc.hops[len(vc.hops)-1].inVCI = inVCI
		in, inVCI = st.out, outVCI
	}
	vc.DstVCI = inVCI
	space.vcs[vc.id] = vc
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
// for release.
func (f *Fabric) admitHop(vc *VC, t *trunk, q qos.QoS) (atm.VCI, error) {
	key, err := t.book.Admit(q)
	if err != nil {
		return 0, err
	}
	v, err := t.allocVCI()
	if err != nil {
		t.book.Release(key)
		return 0, err
	}
	t.class = tabSet(t.class, v, q.Class)
	vc.hops = append(vc.hops, hop{out: t, outVCI: v, bookKey: key})
	return v, nil
}

// unwind releases a partially built VC.
func (vc *VC) unwind() {
	for _, h := range vc.hops {
		if h.sw != nil {
			h.in.xlate[h.inVCI] = tabVal{}
		}
		h.out.freeVCI(h.outVCI)
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
	delete(vc.space.vcs, vc.id)
}

// Hops reports the number of trunks the circuit crosses (the paper's
// testbed path is "three hop (two switch)").
func (vc *VC) Hops() int { return len(vc.hops) }

// ActiveVCs reports the number of established circuits across every
// shard's namespace. During a sharded run this is a report-boundary
// read; mid-run it is only exact for the caller's own shard.
func (f *Fabric) ActiveVCs() int {
	n := 0
	for _, sp := range f.spaces {
		n += len(sp.vcs)
	}
	return n
}

// TrunkStats sums (sent, dropped) cells over every trunk in the fabric.
func (f *Fabric) TrunkStats() (sent, dropped uint64) {
	s := f.ClassStats()
	for cls := 0; cls < 3; cls++ {
		sent += s.Sent[cls]
		dropped += s.Dropped[cls]
	}
	return sent, dropped
}

// ClassCellStats breaks fabric cell counts down by service class
// (indexed by qos.Class), for the scheduler-protection experiments.
type ClassCellStats struct {
	Sent    [3]uint64
	Dropped [3]uint64
}

// LossRate reports the drop fraction for one class (0 when idle).
func (s ClassCellStats) LossRate(c qos.Class) float64 {
	total := s.Sent[c] + s.Dropped[c]
	if total == 0 {
		return 0
	}
	return float64(s.Dropped[c]) / float64(total)
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
	names := make([]string, 0, len(f.switches))
	for n := range f.switches {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, t := range f.switches[n].trunks {
			if t.eng == own {
				f.trackTrunk(st, t)
			}
		}
	}
	addrs := make([]string, 0, len(f.endpoints))
	for a := range f.endpoints {
		addrs = append(addrs, string(a))
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		if up := f.endpoints[atm.Addr(a)].uplink; up.eng == own {
			f.trackTrunk(st, up)
		}
	}
}

func (f *Fabric) trackTrunk(st *tseries.Store, t *trunk) {
	prefix := "fabric.trunk." + t.from.name() + ">" + t.to.name() + "."
	sent := func() uint64 { t.settle(); return t.Sent }
	st.TrackRateFunc(prefix+"cells", sent, 0, 0)
	st.TrackRateFunc(prefix+"drops", func() uint64 { return t.Dropped }, 0, 0)
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

// ClassStats sums per-class cell counts over every trunk.
func (f *Fabric) ClassStats() ClassCellStats {
	var out ClassCellStats
	seen := map[*trunk]bool{}
	visit := func(ts []*trunk) {
		for _, t := range ts {
			if seen[t] {
				continue
			}
			seen[t] = true
			t.settle()
			for cls := 0; cls < 3; cls++ {
				out.Sent[cls] += t.perClass[cls]
				out.Dropped[cls] += t.perClassDrop[cls]
			}
		}
	}
	for _, sw := range f.switches {
		visit(sw.trunks)
	}
	for _, ep := range f.endpoints {
		visit([]*trunk{ep.uplink, ep.downlink})
	}
	return out
}
