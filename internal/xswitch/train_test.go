package xswitch

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/faults"
	"xunet/internal/hobbit"
	"xunet/internal/mbuf"
	"xunet/internal/obs"
	"xunet/internal/obs/tseries"
	"xunet/internal/qos"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// Pulled trunks must be invisible in virtual time: every scenario here
// runs once on the real trunks and once on refNet, the per-cell
// discipline written out plainly, and what the sinks saw — cells, exact
// arrival times — plus per-class counters, unroutable counts and, where
// a scenario probes them mid-run, every trunk's queue depth, its
// high-water mark and counters must match field for field. The real trunks hand a cell over only
// where a watch needs it or a reader looks; drain settles the rest at
// the end, as a reader would, and the sinks stamp arrivals with the
// endpoint's clock.

// trainTrace is the observable outcome of a scenario.
type trainTrace struct {
	Cells      []atm.Cell
	Times      []time.Duration
	Class      classCellStats
	Unroutable uint64
	Probes     []trunkProbe
	Spans      []trace.Span
}

// trunkProbe is one trunk as a reader mid-run finds it, with the queue
// depth's high-water mark since the previous probe, as a time-series
// tick takes it.
type trunkProbe struct {
	At            time.Duration
	Trunk         string
	Queued        int
	Peak          int64
	Sent, Dropped uint64
}

// refNet runs the per-cell discipline over a real Fabric's topology: it
// borrows each trunk's configuration, class and translation tables,
// fault plane and flap state (so SetupVC, Release and StartFlapping act
// on both alike) and keeps its own queues, credits, counters, cell-fate
// streams and events: one transmit event per cell, one arrival event per
// cell per hop.
type refNet struct {
	e          *sim.Engine
	trunks     map[*trunk]*refTrunk
	unroutable uint64
}

type refTrunk struct {
	n        *refNet
	t        *trunk
	queues   [3][]atm.Cell
	credit   [3]int
	draining bool
	fates    *faults.Cells
	sent     [3]uint64
	dropped  [3]uint64
	peak     int64 // the deepest the queues were since the last probe
}

func newRefNet(e *sim.Engine) *refNet { return &refNet{e: e, trunks: map[*trunk]*refTrunk{}} }

func (n *refNet) of(t *trunk) *refTrunk {
	r := n.trunks[t]
	if r == nil {
		r = &refTrunk{n: n, t: t}
		n.trunks[t] = r
	}
	return r
}

func (r *refTrunk) send(c atm.Cell) {
	cls := qos.BestEffort
	if int(c.VCI) < len(r.t.class) {
		cls = r.t.class[c.VCI]
	}
	if fp := r.t.faultPlane(); fp != nil {
		if r.fates == nil {
			r.fates = fp.Cells(r.t.id)
		}
		now := r.n.e.Now()
		if r.t.down {
			r.dropped[cls]++
			fp.TrunkDownDrop(c.TC, now)
			return
		}
		if r.fates.Drop(c.TC, now) {
			r.dropped[cls]++
			return
		}
		if r.fates.Corrupt(c.TC, now) {
			c.Payload[0] ^= 0xA5
		}
	}
	if len(r.queues[cls]) >= r.t.cfg.QueueCells {
		r.dropped[cls]++
		return
	}
	if c.TC.Sampled() {
		c.TCAt = r.n.e.Now() // the hop's entry time
	}
	r.queues[cls] = append(r.queues[cls], c)
	r.peak = max(r.peak, int64(r.queued()))
	if !r.draining {
		r.tx()
	}
}

// tx is the transmit event: pick one cell, put it on the wire, come back
// one serialization time later; a pick that finds nothing ends the busy
// period and replenishes the credits.
func (r *refTrunk) tx() {
	if r.queued() == 0 {
		r.credit = wrrWeights
		r.draining = false
		return
	}
	r.draining = true
	cls := -1
	for pass := 0; pass < 2 && cls < 0; pass++ {
		for k := int(qos.CBR); k >= int(qos.BestEffort); k-- {
			if len(r.queues[k]) > 0 && r.credit[k] > 0 {
				cls = k
				break
			}
		}
		if cls < 0 {
			r.credit = wrrWeights
		}
	}
	r.credit[cls]--
	c := r.queues[cls][0]
	r.queues[cls] = r.queues[cls][1:]
	r.sent[cls]++
	r.n.e.Schedule(r.t.ser+r.t.cfg.Delay, func() { r.arrive(c) })
	r.n.e.Schedule(r.t.ser, r.tx)
}

func (r *refTrunk) queued() int { return len(r.queues[0]) + len(r.queues[1]) + len(r.queues[2]) }

func (r *refTrunk) arrive(c atm.Cell) {
	if c.TC.Sampled() && c.EndOfFrame() {
		// A traced frame's last cell records the frame's transit of the hop.
		r.t.traceCollector().Record(c.TC, "xswitch", r.t.spanName, c.TCAt, r.n.e.Now())
	}
	switch to := r.t.to.(type) {
	case *Switch:
		if int(c.VCI) >= len(r.t.xlate) || r.t.xlate[c.VCI].out == nil {
			r.n.unroutable++
			return
		}
		v := r.t.xlate[c.VCI]
		c.VCI = v.vci
		r.n.of(v.out).send(c)
	case *Endpoint:
		if to.sink != nil {
			to.sink.ReceiveCell(c)
		}
	}
}

func (n *refNet) classStats() classCellStats {
	var out classCellStats
	for _, r := range n.trunks {
		for cls := 0; cls < 3; cls++ {
			out.Sent[cls] += r.sent[cls]
			out.Dropped[cls] += r.dropped[cls]
		}
	}
	return out
}

// allTrunks lists every trunk of f by name.
func allTrunks(f *Fabric) []*trunk {
	var ts []*trunk
	for _, sw := range f.switches {
		ts = append(ts, sw.trunks...)
	}
	for _, ep := range f.endpoints {
		ts = append(ts, ep.uplink)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].spanName < ts[j].spanName })
	return ts
}

// drain runs the engine dry and a second on, then settles every trunk
// and endpoint: the cells no watch followed reach their sinks, stamped
// with their own arrival times, and a cell on an input no circuit was
// ever routed from, which no trunk pulls, meets its switch's table.
func drain(f *Fabric, run func()) {
	run()
	for e := range f.spaces {
		e.RunFor(time.Second)
	}
	for _, t := range allTrunks(f) {
		if _, ok := t.to.(*Switch); ok && t.xeng == nil {
			t.advance(t.eng.Now())
		}
	}
	f.classStats()
	for _, ep := range f.endpoints {
		ep.Settle()
	}
}

// trainRig is one scenario's network. By default sources sit on sw-A
// and the sink on sw-B; up, mid and down are the source attachment,
// inter-switch and sink attachment links, and shards > 1 puts sw-B and
// the sink on a second engine, making the inter-switch trunk a shard
// boundary. build replaces that topology. probe > 0 reads every trunk
// that often for the first 5 ms, the way a time-series tick does.
type trainRig struct {
	up, mid, down LinkConfig
	sources       int
	faults        *faults.Config
	shards        int
	probe         time.Duration
	traced        bool
	build         func(t *testing.T, f *Fabric, e *sim.Engine) (srcs []*Endpoint, sinks []*collector)
}

// chain is the rig the original scenarios ran on: one source and every
// link alike, so queue limits apply on all three hops.
func chain(cfg LinkConfig) trainRig { return trainRig{up: cfg, mid: cfg, down: cfg, sources: 1} }

// trainScenario drives a rig: e is the engine the sources live on and
// send(i, c) transmits a cell from source i. On a traced rig the fabric
// carries an enabled trace collector (f.TraceC), and the spans of the
// traces a scenario starts there are part of the outcome.
type trainScenario func(e *sim.Engine, f *Fabric, send func(src int, c atm.Cell))

// attach adds an endpoint with a collecting sink.
func attach(t *testing.T, f *Fabric, addr atm.Addr, sw *Switch, cfg LinkConfig, e *sim.Engine) (*Endpoint, *collector) {
	t.Helper()
	c := &collector{}
	ep, err := f.AttachOn(addr, c, sw, cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	c.ep = ep
	return ep, c
}

// runTrain builds the rig, plays the scenario — on the real trunks, or
// on refNet when ref is set — and returns what the sinks and probes saw.
func runTrain(t *testing.T, rig trainRig, ref bool, scenario trainScenario) trainTrace {
	t.Helper()
	var g *sim.ShardGroup
	e := sim.New(1)
	eB := e
	if rig.shards > 1 && !ref {
		g = sim.NewShardGroup(1, rig.shards, rig.mid.Delay)
		defer g.Close()
		e, eB = g.Shard(0), g.Shard(1)
	}
	f := NewFabric(e)
	if rig.traced {
		f.TraceC = trace.NewCollector(e.Now)
		f.TraceC.SetEnabled(true)
	}
	if rig.faults != nil {
		f.Faults = faults.NewPlane(*rig.faults)
		f.Faults.AttachTrace(f.TraceC, e.Now)
	}
	var srcs []*Endpoint
	var sinks []*collector
	if rig.build != nil {
		srcs, sinks = rig.build(t, f, e)
	} else {
		swA, err := f.AddSwitchOn("sw-A", e)
		if err != nil {
			t.Fatal(err)
		}
		swB, err := f.AddSwitchOn("sw-B", eB)
		if err != nil {
			t.Fatal(err)
		}
		f.ConnectSwitches(swA, swB, rig.mid)
		for i := 0; i < rig.sources; i++ {
			name := "mh.rt"
			if i > 0 {
				name = fmt.Sprintf("mh%d.rt", i)
			}
			ep, _ := attach(t, f, atm.Addr(name), swA, rig.up, e)
			srcs = append(srcs, ep)
		}
		_, sink := attach(t, f, "ucb.rt", swB, rig.down, eB)
		sinks = append(sinks, sink)
	}
	var rn *refNet
	send := func(src int, c atm.Cell) { srcs[src].SendCell(c) }
	if ref {
		rn = newRefNet(e)
		send = func(src int, c atm.Cell) { rn.of(srcs[src].uplink).send(c) }
	}
	var tr trainTrace
	for _, tk := range allTrunks(f) {
		if rig.probe > 0 && !ref {
			tk.qPeak = &tseries.Peak{}
		}
	}
	for at := rig.probe; rig.probe > 0 && at < 5*time.Millisecond; at += rig.probe {
		e.Schedule(at, func() {
			for _, tk := range allTrunks(f) {
				p := trunkProbe{At: e.Now(), Trunk: tk.spanName}
				if ref {
					if r := rn.trunks[tk]; r != nil {
						p.Queued, p.Peak, r.peak = r.queued(), r.peak, 0
						p.Sent = r.sent[0] + r.sent[1] + r.sent[2]
						p.Dropped = r.dropped[0] + r.dropped[1] + r.dropped[2]
					}
				} else {
					tk.settle()
					p.Queued, p.Peak, p.Sent, p.Dropped = tk.queued, tk.qPeak.Take(), tk.Sent, tk.Dropped
				}
				tr.Probes = append(tr.Probes, p)
			}
		})
	}
	scenario(e, f, send)
	drain(f, func() {
		if g != nil {
			g.RunUntil(time.Minute)
		} else {
			e.Run()
		}
	})
	if err := arenaDrained(f); err != nil && !ref {
		t.Fatal(err)
	}
	for _, s := range sinks {
		tr.Cells = append(tr.Cells, s.cells...)
		tr.Times = append(tr.Times, s.times...)
	}
	tr.Spans = tracedSpans(f.TraceC)
	if ref {
		tr.Class, tr.Unroutable = rn.classStats(), rn.unroutable
	} else {
		tr.Class = f.classStats()
		for _, sw := range f.switches {
			tr.Unroutable += sw.Unroutable
		}
	}
	return tr
}

// arenaDrained reports a slot the arena still counts once every cell has
// left the fabric: each block is free, but for the one being filled,
// which counts only its unfilled slots.
func arenaDrained(f *Fabric) error {
	for _, sp := range f.spaces {
		for b, live := range sp.live {
			want := 0
			if sp.fill < sp.end && int32(b) == sp.fill/blockCells {
				want = int(sp.end - sp.fill)
			}
			if live != want {
				return fmt.Errorf("arena block %d counts %d slots, want %d", b, live, want)
			}
		}
	}
	return nil
}

// tracedSpans returns the spans of the traces a scenario started on tc,
// numbered as calls 1, 2, … from "" (StartTrace), in recording order
// within each trace, roots left out. A span's ID is zeroed and its
// parent set to the call number: IDs number spans across traces in
// recording order, and the fault plane draws a pulled cell's fate when a
// trunk pulls it, not at its arrival.
func tracedSpans(tc *trace.Collector) (spans []trace.Span) {
	for id := uint32(1); ; id++ {
		tr, ok := tc.ByCall("", id)
		if !ok {
			return spans
		}
		for _, sp := range tr.Spans[1:] {
			sp.ID, sp.Parent = 0, uint64(id)
			spans = append(spans, sp)
		}
	}
}

// checkTrain requires the real trunks and the reference to agree.
func checkTrain(t *testing.T, rig trainRig, minCells int, scenario trainScenario) {
	t.Helper()
	want := runTrain(t, rig, true, scenario)
	got := runTrain(t, rig, false, scenario)
	if len(want.Cells) < minCells {
		t.Fatalf("scenario too weak: only %d cells delivered", len(want.Cells))
	}
	if rig.traced && len(want.Spans) == 0 {
		t.Fatal("scenario too weak: no hop spans recorded")
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("pulled trunks diverge from the per-cell reference:\n per-cell: %d cells, class=%+v, unroutable=%d\n pulled:   %d cells, class=%+v, unroutable=%d",
		len(want.Cells), want.Class, want.Unroutable, len(got.Cells), got.Class, got.Unroutable)
	for i := 0; i < len(want.Probes) && i < len(got.Probes); i++ {
		if want.Probes[i] != got.Probes[i] {
			t.Fatalf("first probe divergence: per-cell %+v vs pulled %+v", want.Probes[i], got.Probes[i])
		}
	}
	if !reflect.DeepEqual(got.Spans, want.Spans) {
		t.Fatalf("hop spans differ:\n per-cell: %+v\n pulled:   %+v", want.Spans, got.Spans)
	}
	for i := 0; i < len(want.Cells) && i < len(got.Cells); i++ {
		if want.Cells[i] != got.Cells[i] || want.Times[i] != got.Times[i] {
			t.Fatalf("first divergence at arrival %d: per-cell (%v, vci=%d, p0=%d, tc=%v@%v) vs pulled (%v, vci=%d, p0=%d, tc=%v@%v)",
				i, want.Times[i], want.Cells[i].VCI, want.Cells[i].Payload[0], want.Cells[i].TC, want.Cells[i].TCAt,
				got.Times[i], got.Cells[i].VCI, got.Cells[i].Payload[0], got.Cells[i].TC, got.Cells[i].TCAt)
		}
	}
	t.Fatalf("cell or probe count mismatch: %d/%d vs %d/%d", len(want.Cells), len(want.Probes), len(got.Cells), len(got.Probes))
}

// setupClassVCs provisions one VC per service class from the named
// source to the named sink, in fixed order. They reserve nothing:
// admission control is not under test, and a rate-zero trunk has
// nothing to reserve.
func setupClassVCs(t *testing.T, f *Fabric, from atm.Addr, to ...atm.Addr) [3]*VC {
	t.Helper()
	dst := atm.Addr("ucb.rt")
	if len(to) > 0 {
		dst = to[0]
	}
	var vcs [3]*VC
	for i, q := range []qos.QoS{
		{Class: qos.BestEffort},
		{Class: qos.VBR},
		{Class: qos.CBR},
	} {
		vc, err := f.SetupVC(from, dst, q)
		if err != nil {
			t.Fatalf("SetupVC class %d: %v", i, err)
		}
		vcs[i] = vc
	}
	return vcs
}

// cellOn makes a cell on vc; every fifth ends a frame, so watches and
// plain pulls both carry cells in every scenario.
func cellOn(vc *VC, seq byte) atm.Cell {
	c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}}
	if seq%5 == 4 {
		c.PTI = atm.PTIUserData1
	}
	c.Payload[0] = seq
	return c
}

func TestCellTrainEquivalence(t *testing.T) {
	ds3 := LinkConfig{RateBps: 45_000_000, Delay: 2 * time.Millisecond, QueueCells: 2048}
	ser := time.Duration(atm.CellSize * 8 * uint64(time.Second) / ds3.RateBps)
	taxi := TAXI()
	cases := []struct {
		name     string
		rig      trainRig
		minCells int // sanity floor on delivered cells
		scenario trainScenario
	}{
		{
			// A mixed burst far longer than any one class's WRR credit:
			// serving it crosses CBR→VBR→BestEffort boundaries and a
			// credit replenish inside a single busy period.
			name:     "wrr straddle across class switch",
			rig:      trainRig{up: ds3, mid: ds3, down: ds3, sources: 1, probe: 7919 * time.Nanosecond},
			minCells: 60,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				e.Schedule(0, func() {
					for i := 0; i < 20; i++ {
						send(0, cellOn(vcs[2], byte(i)))     // CBR
						send(0, cellOn(vcs[1], byte(100+i))) // VBR
						send(0, cellOn(vcs[0], byte(200+i))) // BestEffort
					}
				})
			},
		},
		{
			// A second blast lands while the first is still serializing:
			// the overflow check must see the queue depth the per-cell
			// discipline would.
			name:     "queue overflow mid-train",
			rig:      chain(LinkConfig{RateBps: 45_000_000, Delay: 2 * time.Millisecond, QueueCells: 8}),
			minCells: 8,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				e.Schedule(0, func() {
					for i := 0; i < 8; i++ {
						send(0, cellOn(vcs[0], byte(i)))
					}
				})
				// DS3 serializes a cell in ~9.4µs; 30µs is ~3 slots in.
				e.Schedule(30*time.Microsecond, func() {
					for i := 0; i < 24; i++ {
						send(0, cellOn(vcs[0], byte(50+i)))
					}
				})
			},
		},
		{
			// The VC is torn down while its cells are still propagating:
			// cells already on the wire lose their translation entries
			// and must count as unroutable at the same instants.
			name:     "vc teardown with cells in flight",
			rig:      chain(ds3),
			minCells: 0,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				e.Schedule(0, func() {
					for i := 0; i < 10; i++ {
						send(0, cellOn(vcs[2], byte(i)))
					}
				})
				// All 10 serialize within ~95µs; arrivals start at 2ms.
				e.Schedule(500*time.Microsecond, func() {
					vcs[2].Release()
				})
			},
		},
		{
			// Torn down once its cells have passed the last switch and set
			// up again over stray cells already at the first: nothing
			// pulled those cells before the tables changed, so SetupVC and
			// Release must settle the trunks first — the cells past sw-B
			// keep their class and route, the strays stay unroutable.
			name:     "tables change under cells nothing pulled yet",
			rig:      chain(ds3),
			minCells: 10,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.CBR})
				if err != nil {
					t.Fatal(err)
				}
				raw := func(v atm.VCI, seq byte) atm.Cell {
					c := atm.Cell{Header: atm.Header{VCI: v}}
					c.Payload[0] = seq
					return c
				}
				e.Schedule(0, func() {
					for i := 0; i < 10; i++ {
						send(0, raw(vc.SrcVCI, byte(i)))
					}
				})
				// Every hop is a 2 ms DS3: the cells pass sw-B by 4.11 ms and
				// reach the sink from 6.03.
				e.Schedule(4500*time.Microsecond, func() {
					vc.Release()
					for i := 0; i < 5; i++ {
						send(0, raw(vc.SrcVCI, byte(100+i)))
					}
				})
				// The strays reach sw-A by 6.56 ms; the new circuit takes
				// the same VCIs after.
				e.Schedule(6700*time.Microsecond, func() {
					if _, err := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.VBR}); err != nil {
						t.Fatal(err)
					}
				})
			},
		},
		{
			// Staggered sends that keep interrupting a busy line at
			// instants off the pick grid exercise commit's rounding.
			name:     "repeated truncation at odd offsets",
			rig:      chain(ds3),
			minCells: 30,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				for k := 0; k < 10; k++ {
					k := k
					at := time.Duration(k) * 7 * time.Microsecond
					e.Schedule(at, func() {
						send(0, cellOn(vcs[k%3], byte(k)))
						send(0, cellOn(vcs[(k+1)%3], byte(k+10)))
						send(0, cellOn(vcs[(k+2)%3], byte(k+20)))
					})
				}
			},
		},
		{
			// Two TAXI attachments feed one DS3 with cells arriving at the
			// very same instants, 2.2× faster than it drains; a reader
			// probes every trunk mid-burst, as a time-series tick does.
			name:     "two inputs merge onto one trunk",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 2, probe: 7919 * time.Nanosecond},
			minCells: 120,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				a := setupClassVCs(t, f, "mh.rt")
				b := setupClassVCs(t, f, "mh1.rt")
				e.Schedule(0, func() {
					for i := 0; i < 30; i++ {
						send(0, cellOn(a[i%3], byte(i)))
						send(1, cellOn(b[(i+1)%3], byte(100+i)))
						send(0, cellOn(a[0], byte(200+i)))
						send(1, cellOn(b[2], byte(50+i)))
					}
				})
			},
		},
		{
			// Sends land exactly on a pick boundary (the new CBR cell must
			// win that pick) and exactly where the busy period ends (the
			// line must not have gone idle: credits are not replenished,
			// which the CBR/VBR order afterwards shows).
			name:     "send on a pick boundary and at the end of a busy period",
			rig:      chain(ds3),
			minCells: 39,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				e.Schedule(0, func() {
					for i := 0; i < 6; i++ {
						send(0, cellOn(vcs[0], byte(i)))
					}
				})
				e.Schedule(2*ser, func() { send(0, cellOn(vcs[2], 99)) })
				// Seven picks made, at 0..6·ser: the eighth, at 7·ser, would
				// find nothing.
				e.Schedule(7*ser, func() {
					for i := 0; i < 12; i++ {
						send(0, cellOn(vcs[2], byte(100+i)))
					}
				})
				// 12 CBR cells leave 4 CBR credits; busy until 19·ser.
				e.Schedule(19*ser, func() {
					for i := 0; i < 10; i++ {
						send(0, cellOn(vcs[2], byte(150+i)))
						send(0, cellOn(vcs[1], byte(200+i)))
					}
				})
			},
		},
		{
			// An infinite-rate trunk (ser = 0) picks at once.
			name:     "rate zero trunk",
			rig:      trainRig{up: LinkConfig{Delay: 5 * time.Microsecond, QueueCells: 4}, mid: ds3, down: LinkConfig{Delay: time.Microsecond}, sources: 1},
			minCells: 30,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				for k := 0; k < 10; k++ {
					k := k
					e.Schedule(time.Duration(k)*3*time.Microsecond, func() {
						send(0, cellOn(vcs[k%3], byte(k)))
						send(0, cellOn(vcs[k%3], byte(50+k)))
						send(0, cellOn(vcs[(k+1)%3], byte(100+k)))
					})
				}
			},
		},
		{
			// Propagation shorter than serialization: a cell is delivered
			// before the next pick, so the in-flight ring keeps emptying
			// under a busy line.
			name:     "delay below serialization time",
			rig:      chain(LinkConfig{RateBps: 45_000_000, Delay: time.Microsecond, QueueCells: 16}),
			minCells: 40,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				for k := 0; k < 8; k++ {
					k := k
					e.Schedule(time.Duration(k)*31*time.Microsecond, func() {
						for i := 0; i < 6; i++ {
							send(0, cellOn(vcs[(k+i)%3], byte(10*k+i)))
						}
					})
				}
			},
		},
		{
			// Burst loss, corruption and flapping armed: each trunk draws
			// its cells' fates from its own stream in its arrival order,
			// so both runs lose and flip the same cells.
			name: "fault plane armed",
			rig: trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, faults: &faults.Config{
				Seed:        7,
				GE:          faults.GEConfig{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.5},
				CellCorrupt: 0.05,
				FlapMeanUp:  3 * time.Millisecond, FlapDown: time.Millisecond,
			}},
			minCells: 100,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				f.StartFlapping(20 * time.Millisecond)
				for k := 0; k < 20; k++ {
					k := k
					e.Schedule(time.Duration(k)*700*time.Microsecond, func() {
						for i := 0; i < 30; i++ {
							send(0, cellOn(vcs[(k+i)%3], byte(k+i)))
						}
					})
				}
			},
		},
		{
			// Flapping alone, with frames mid-journey whenever the DS3
			// goes down or comes back: each toggle settles the trunk
			// first, so the cells that reached the switch before it meet
			// the old state and the rest the new.
			name: "flap mid-journey",
			rig: trainRig{up: taxi, mid: LinkConfig{RateBps: 45_000_000, Delay: 300 * time.Microsecond, QueueCells: 2048},
				down: taxi, sources: 1, probe: 104729 * time.Nanosecond, faults: &faults.Config{
					Seed: 3, FlapMeanUp: 900 * time.Microsecond, FlapDown: 250 * time.Microsecond,
				}},
			minCells: 300,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				f.StartFlapping(12 * time.Millisecond)
				for k := 0; k < 40; k++ {
					k := k
					e.Schedule(time.Duration(k)*251*time.Microsecond, func() {
						for i := 0; i < 20; i++ {
							send(0, cellOn(vcs[k%3], byte(i)))
						}
					})
				}
			},
		},
		{
			// Corruption on the middle hop only (the fault plane sits on
			// sw-A, whose DS3 is hop 2 of 3): the flipped cells arrive
			// flipped, at the same instants, in both runs.
			name: "corruption on hop 2 of 3",
			rig: trainRig{up: taxi, mid: ds3, down: taxi, build: func(t *testing.T, f *Fabric, e *sim.Engine) ([]*Endpoint, []*collector) {
				swA, swB := Testbed(f)
				swA.SetFaults(faults.NewPlane(faults.Config{Seed: 5, CellCorrupt: 0.2}))
				src, _ := attach(t, f, "mh.rt", swA, taxi, e)
				_, sink := attach(t, f, "ucb.rt", swB, taxi, e)
				return []*Endpoint{src}, []*collector{sink}
			}},
			minCells: 200,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				for k := 0; k < 10; k++ {
					k := k
					e.Schedule(time.Duration(k)*400*time.Microsecond, func() {
						for i := 0; i < 25; i++ {
							send(0, cellOn(vcs[(k+i)%3], byte(i)))
						}
					})
				}
			},
		},
		{
			// A later-sent burst on a short attachment overtakes a frame on
			// a long one at the shared DS3: the frame's last cell queues
			// there past the bound its watch was armed at, which must
			// re-arm (TestInteriorHopEvents counts that it does).
			name: "overtaking merge",
			rig: trainRig{mid: ds3, build: func(t *testing.T, f *Fabric, e *sim.Engine) ([]*Endpoint, []*collector) {
				swA, swB := Testbed(f)
				slow, _ := attach(t, f, "mh.rt", swA, LinkConfig{RateBps: 100_000_000, Delay: 400 * time.Microsecond, QueueCells: 2048}, e)
				fast, _ := attach(t, f, "mh1.rt", swA, taxi, e)
				_, sink := attach(t, f, "ucb.rt", swB, taxi, e)
				return []*Endpoint{slow, fast}, []*collector{sink}
			}},
			minCells: 60,
			scenario: overtakingMerge(t),
		},
		{
			// Four 30-cell frames interleaved cell by cell into TAXI, DS3
			// behind it: the last cells queue a millisecond deep on the
			// DS3, so their watches fire long before they are picked and
			// must re-arm at a bound that counts the DS3's picks so far.
			name:     "frames queued deep behind a slow hop",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 1},
			minCells: 240,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				var vcs []*VC
				for v := 0; v < 4; v++ {
					vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
					if err != nil {
						t.Fatal(err)
					}
					vcs = append(vcs, vc)
				}
				for k := 0; k < 2; k++ {
					e.Schedule(time.Duration(k)*700*time.Microsecond, func() {
						for i := 0; i < 30; i++ {
							for v, vc := range vcs {
								c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}}
								if i == 29 {
									c.PTI = atm.PTIUserData1
								}
								c.Payload[0] = byte(v*30 + i)
								send(0, c)
							}
						}
					})
				}
			},
		},
		{
			// Four switches in a ring, an endpoint on each, and every
			// circuit two hops clockwise: each inter-switch trunk carries
			// two circuits, so pulling any one of them pulls its way
			// round the whole ring, with cells on every link.
			name:     "pulled commits around a ring",
			rig:      trainRig{probe: 15013 * time.Nanosecond, build: ringOf4},
			minCells: 200,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				var vcs [4][3]*VC
				for i := range vcs {
					vcs[i] = setupClassVCs(t, f, ringAddr(i), ringAddr((i+2)%4))
				}
				for k := 0; k < 12; k++ {
					k := k
					e.Schedule(time.Duration(k)*83*time.Microsecond, func() {
						for i := 0; i < 24; i++ {
							src := (k + i) % 4
							send(src, cellOn(vcs[src][(k*i)%3], byte(i)))
						}
					})
				}
			},
		},
		{
			// The inter-switch trunk crosses a shard boundary: it keeps a
			// transmit event per cell, and the reference runs flat.
			name:     "boundary trunk under a two shard group",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 2, shards: 2},
			minCells: 150,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				a := setupClassVCs(t, f, "mh.rt")
				b := setupClassVCs(t, f, "mh1.rt")
				for k := 0; k < 5; k++ {
					k := k
					e.Schedule(time.Duration(k)*137*time.Microsecond, func() {
						for i := 0; i < 30; i++ {
							send(0, cellOn(a[(k+i)%3], byte(k+i)))
						}
					})
					e.Schedule(time.Duration(k)*137*time.Microsecond+50*time.Microsecond, func() {
						for i := 0; i < 10; i++ {
							send(1, cellOn(b[i%3], byte(200+i)))
						}
					})
				}
			},
		},
		{
			name:     "traced frame alone",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, traced: true},
			minCells: 24,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vc, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
				t1, t2 := f.TraceC.StartTrace("test", "frame", 1), f.TraceC.StartTrace("test", "frame", 2)
				e.Schedule(0, func() { sendTraced(send, 0, vc, t1, 12, 0) })
				e.Schedule(time.Millisecond, func() { sendTraced(send, 0, vc, t2, 12, 50) })
			},
		},
		{
			name:     "traced frame behind an untraced burst",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 2, traced: true, probe: 7919 * time.Nanosecond},
			minCells: 84,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				a := setupClassVCs(t, f, "mh.rt")
				b := setupClassVCs(t, f, "mh1.rt")
				var tcs [3]trace.Context
				for k := range tcs {
					tcs[k] = f.TraceC.StartTrace("test", "frame", uint32(k+1))
				}
				e.Schedule(0, func() {
					for i := 0; i < 30; i++ {
						send(0, cellOn(a[0], byte(i)))
					}
					sendTraced(send, 0, a[0], tcs[0], 8, 100)
				})
				e.Schedule(40*time.Microsecond, func() {
					for i := 0; i < 30; i++ {
						send(1, cellOn(b[i%2], byte(150+i)))
					}
					sendTraced(send, 1, b[2], tcs[1], 6, 200)
					sendTraced(send, 0, a[1], tcs[2], 10, 220)
				})
			},
		},
		{
			name: "traced frame under the fault cocktail",
			rig: trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, traced: true, faults: &faults.Config{
				Seed:        11,
				GE:          faults.GEConfig{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.5},
				CellCorrupt: 0.05,
				FlapMeanUp:  3 * time.Millisecond, FlapDown: time.Millisecond,
			}},
			minCells: 100,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				f.StartFlapping(20 * time.Millisecond)
				for k := 0; k < 20; k++ {
					// Started up front: a root span's ID counts the spans
					// recorded before it, and pulled cells draw their fates late.
					tc := f.TraceC.StartTrace("test", "frame", uint32(k+1))
					e.Schedule(time.Duration(k)*700*time.Microsecond, func() {
						for i := 0; i < 20; i++ {
							send(0, cellOn(vcs[(k+i)%3], byte(k+i)))
						}
						sendTraced(send, 0, vcs[k%3], tc, 10, byte(10*k))
					})
				}
			},
		},
		{
			// The benchmark's data rig: four circuits each send a 30-cell
			// frame every 1.5 ms, staggered by 375 µs, over TAXI, DS3 and
			// TAXI; each frame crosses every hop as one run and its watched
			// last cell.
			name:     "runs: four staggered 30-cell circuits",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, probe: 104729 * time.Nanosecond},
			minCells: 4 * 4 * 30,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				for v := 0; v < 4; v++ {
					vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 4; k++ {
						e.Schedule(time.Duration(v)*375*time.Microsecond+time.Duration(k)*1500*time.Microsecond, func() {
							sendFrame(send, 0, vc, 30, byte(60*v+k))
						})
					}
				}
			},
		},
		{
			// A CBR cell from a second input reaches the DS3 while a
			// best-effort run is arriving: the run splits around it, and
			// the CBR cell takes the next pick.
			name:     "runs: split by a CBR cell",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 2},
			minCells: 64,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				be, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
				cbr, _ := f.SetupVC("mh1.rt", "ucb.rt", qos.QoS{Class: qos.CBR})
				e.Schedule(0, func() { sendFrame(send, 0, be, 30, 0) })
				for k := 0; k < 4; k++ {
					e.Schedule(time.Duration(30+17*k)*time.Microsecond, func() { sendFrame(send, 1, cbr, 1, byte(100+k)) })
				}
				e.Schedule(300*time.Microsecond, func() { sendFrame(send, 0, be, 30, 50) })
			},
		},
		{
			// Runs longer than the class queue: the queue limit cuts each
			// run where the per-cell discipline starts dropping, on the
			// uplink and again at the slower DS3.
			name:     "runs: split by queue overflow",
			rig:      trainRig{up: LinkConfig{RateBps: 100_000_000, Delay: 10 * time.Microsecond, QueueCells: 12}, mid: LinkConfig{RateBps: 45_000_000, Delay: 2 * time.Millisecond, QueueCells: 9}, down: taxi, sources: 1},
			minCells: 20,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vc, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
				for k := 0; k < 3; k++ {
					e.Schedule(time.Duration(k)*90*time.Microsecond, func() { sendFrame(send, 0, vc, 30, byte(40*k)) })
				}
			},
		},
		{
			// Burst loss only, heavy: lost cells cut runs on every hop.
			name: "runs: split by a fault fate",
			rig: trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, faults: &faults.Config{
				Seed: 13, GE: faults.GEConfig{PGoodToBad: 0.1, PBadToGood: 0.4, LossGood: 0.02, LossBad: 0.6},
			}},
			minCells: 150,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vc, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
				for k := 0; k < 10; k++ {
					e.Schedule(time.Duration(k)*400*time.Microsecond, func() { sendFrame(send, 0, vc, 30, byte(25*k)) })
				}
			},
		},
		{
			// A reader every 3.1 µs — less than any cell time — settles
			// every trunk in the middle of every run.
			name:     "runs: split by a mid-run probe",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, probe: 3109 * time.Nanosecond},
			minCells: 60,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				a, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
				b, _ := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.VBR})
				e.Schedule(0, func() { sendFrame(send, 0, a, 30, 0) })
				e.Schedule(200*time.Microsecond, func() { sendFrame(send, 0, b, 30, 100) })
			},
		},
		{
			// Frames cross a shard boundary: the boundary trunk takes each
			// run one cell at a time, and cells arriving past it form
			// runs of their own.
			name:     "runs: across a boundary trunk",
			rig:      trainRig{up: taxi, mid: ds3, down: taxi, sources: 1, shards: 2},
			minCells: 120,
			scenario: func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				a, _ := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
				b, _ := f.SetupVC("mh.rt", "ucb.rt", qos.QoS{Class: qos.CBR})
				for k := 0; k < 2; k++ {
					e.Schedule(time.Duration(k)*500*time.Microsecond, func() {
						sendFrame(send, 0, a, 30, byte(60*k))
						sendFrame(send, 0, b, 30, byte(60*k+30))
					})
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkTrain(t, tc.rig, tc.minCells, tc.scenario) })
	}
}

// TestSendCellsIsSendCellPerCell: an endpoint handed a batch of cells in
// one SendCells call — frames longer than an arena block, traced cells
// and another VC's cells among them — sends what the same cells sent by
// SendCell one at a time send, and both match the per-cell reference.
func TestSendCellsIsSendCellPerCell(t *testing.T) {
	taxi, ds3 := TAXI(), DS3(2*time.Millisecond)
	for _, rig := range []trainRig{
		{up: taxi, mid: ds3, down: taxi, sources: 1, traced: true, probe: 20011 * time.Nanosecond},
		{up: taxi, mid: LinkConfig{RateBps: 45_000_000, Delay: time.Millisecond, QueueCells: 90}, down: taxi, sources: 1},
		{up: taxi, mid: ds3, down: taxi, sources: 1, faults: &faults.Config{Seed: 17, GE: faults.GEConfig{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.5}, CellCorrupt: 0.05}},
	} {
		burst := func(f *Fabric, vcs [3]*VC, k int) []atm.Cell {
			var cells []atm.Cell
			add := func(vc *VC, n int, tc trace.Context) {
				for i := 0; i < n; i++ {
					c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}, TC: tc}
					if i == n-1 {
						c.PTI = atm.PTIUserData1
					}
					c.Payload[0] = byte(len(cells))
					cells = append(cells, c)
				}
			}
			add(vcs[0], 150, trace.Context{}) // three arena blocks' worth
			if f.TraceC != nil {
				add(vcs[1], 5, f.TraceC.StartTrace("test", "frame", uint32(k+1)))
			}
			add(vcs[2], 40, trace.Context{})
			add(vcs[0], 20, trace.Context{})
			return cells
		}
		scenario := func(batch bool) trainScenario {
			return func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := setupClassVCs(t, f, "mh.rt")
				for k := 0; k < 2; k++ {
					e.Schedule(time.Duration(k)*3*time.Millisecond, func() {
						cells := burst(f, vcs, k)
						if batch {
							f.Endpoint("mh.rt").SendCells(cells)
							return
						}
						for _, c := range cells {
							send(0, c)
						}
					})
				}
			}
		}
		want := runTrain(t, rig, true, scenario(false))
		perCell := runTrain(t, rig, false, scenario(false))
		batched := runTrain(t, rig, false, scenario(true))
		if len(want.Cells) < 300 {
			t.Fatalf("scenario too weak: only %d cells delivered", len(want.Cells))
		}
		if !reflect.DeepEqual(perCell, want) || !reflect.DeepEqual(batched, want) {
			t.Fatalf("rig %+v: SendCell per cell matches the reference: %v; SendCells does: %v",
				rig, reflect.DeepEqual(perCell, want), reflect.DeepEqual(batched, want))
		}
	}
}

// sendFrame sends an n-cell frame from source src on vc, payload bytes
// numbered from seq.
func sendFrame(send func(int, atm.Cell), src int, vc *VC, n int, seq byte) {
	sendTraced(send, src, vc, trace.Context{}, n, seq)
}

// sendTraced sends an n-cell frame from source src on vc whose cells
// carry the trace ctx.
func sendTraced(send func(int, atm.Cell), src int, vc *VC, ctx trace.Context, n int, seq byte) {
	for i := 0; i < n; i++ {
		c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}, TC: ctx}
		if i == n-1 {
			c.PTI = atm.PTIUserData1
		}
		c.Payload[0] = seq + byte(i)
		send(src, c)
	}
}

// overtakingMerge sends a 20-cell frame over the long attachment at 0
// and, at 300µs, a 40-cell CBR burst over the short one, which reaches
// the DS3 first.
func overtakingMerge(t *testing.T) trainScenario {
	return func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
		slow, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := f.SetupVC("mh1.rt", "ucb.rt", qos.QoS{Class: qos.CBR})
		if err != nil {
			t.Fatal(err)
		}
		e.Schedule(0, func() {
			for i := 0; i < 20; i++ {
				c := atm.Cell{Header: atm.Header{VCI: slow.SrcVCI}}
				if i == 19 {
					c.PTI = atm.PTIUserData1
				}
				c.Payload[0] = byte(i)
				send(0, c)
			}
		})
		e.Schedule(300*time.Microsecond, func() {
			for i := 0; i < 40; i++ {
				c := atm.Cell{Header: atm.Header{VCI: fast.SrcVCI}}
				if i == 39 {
					c.PTI = atm.PTIUserData1
				}
				c.Payload[0] = byte(100 + i)
				send(1, c)
			}
		})
	}
}

func ringAddr(i int) atm.Addr { return atm.Addr(fmt.Sprintf("r%d.rt", i)) }

// ringOf4 builds four switches in a ring — unequal delays, one OC-12
// link — with one endpoint on each.
func ringOf4(t *testing.T, f *Fabric, e *sim.Engine) ([]*Endpoint, []*collector) {
	var sw [4]*Switch
	for i := range sw {
		sw[i] = f.mustAddSwitch(fmt.Sprintf("sw-%d", i))
	}
	links := []LinkConfig{DS3(50 * time.Microsecond), DS3(70 * time.Microsecond), oc12(90 * time.Microsecond), DS3(30 * time.Microsecond)}
	for i := range sw {
		f.ConnectSwitches(sw[i], sw[(i+1)%4], links[i])
	}
	var srcs []*Endpoint
	var sinks []*collector
	for i := range sw {
		ep, c := attach(t, f, ringAddr(i), sw[i], TAXI(), e)
		srcs, sinks = append(srcs, ep), append(sinks, c)
	}
	return srcs, sinks
}

// TestCellTrainRandomSchedules replays seeded random send schedules —
// link profiles, queue limits, burst sizes, classes, frame ends and
// instants all drawn — against the reference, a third of them probed
// mid-run. Rates that divide one another put arrivals exactly on the
// next trunk's pick instants all the time; the per-cell engine runs the
// arrival first because it was scheduled first, which holds (and is what
// the tie rule assumes) as long as a hop's serialization plus
// propagation outlasts the next hop's serialization. Every profile pair
// here keeps that: the slowest cell time, E3's 12.3 µs, is below the
// quickest hop, 12.4 µs.
func TestCellTrainRandomSchedules(t *testing.T) {
	profiles := []LinkConfig{
		TAXI(),
		DS3(2 * time.Millisecond),
		oc12(300 * time.Microsecond),
		{RateBps: 45_000_000, Delay: 3 * time.Microsecond, QueueCells: 64},
		{RateBps: 34_368_000, Delay: 50 * time.Microsecond, QueueCells: 64},
	}
	for seed := uint64(1); seed <= 240; seed++ {
		rng := sim.NewRand(seed)
		draw := func() LinkConfig {
			cfg := profiles[rng.Intn(len(profiles))]
			if rng.Intn(3) == 0 {
				cfg.QueueCells = 4 + rng.Intn(12) // small enough to overflow
			}
			return cfg
		}
		rig := trainRig{up: draw(), mid: draw(), down: draw(), sources: 1 + rng.Intn(2)}
		if rng.Intn(3) == 0 {
			rig.probe = time.Duration(20_011 + rng.Intn(50_000))
		}
		type burst struct {
			at    time.Duration
			src   int
			cells []int // class per cell
			ends  []bool
		}
		var bursts []burst
		for n := 3 + rng.Intn(10); n > 0; n-- {
			b := burst{at: time.Duration(rng.Intn(400_000)), src: rng.Intn(rig.sources)}
			for k := 1 + rng.Intn(40); k > 0; k-- {
				b.cells = append(b.cells, rng.Intn(3))
				b.ends = append(b.ends, rng.Intn(4) == 0)
			}
			bursts = append(bursts, b)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkTrain(t, rig, 0, func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
				vcs := [][3]*VC{setupClassVCs(t, f, "mh.rt")}
				if rig.sources > 1 {
					vcs = append(vcs, setupClassVCs(t, f, "mh1.rt"))
				}
				seq := byte(0)
				for _, b := range bursts {
					b := b
					e.Schedule(b.at, func() {
						for i, cls := range b.cells {
							seq++
							c := atm.Cell{Header: atm.Header{VCI: vcs[b.src][cls].SrcVCI}}
							if b.ends[i] {
								c.PTI = atm.PTIUserData1
							}
							c.Payload[0] = seq
							send(b.src, c)
						}
					})
				}
			})
		})
	}
}

// TestCellTrainBoardResets puts a Hobbit board behind the sink endpoint
// and resets it — Board.ResetVC, then Driver.Shut — while a frame's
// cells are on the last hop: the reset must first take in every cell
// that reached the board before it (ResetVC settles the endpoint), as
// per-cell delivery would have, so the frames handed up, the board's
// counters and the reassembly-time histogram match the reference.
func TestCellTrainBoardResets(t *testing.T) {
	rig := trainRig{up: TAXI(), mid: DS3(2 * time.Millisecond), down: LinkConfig{RateBps: 10_000_000, Delay: 10 * time.Microsecond, QueueCells: 2048}, sources: 1}
	var outcome [2]string
	for i, ref := range []bool{true, false} {
		runTrain(t, rig, ref, func(e *sim.Engine, f *Fabric, send func(int, atm.Cell)) {
			vc, err := f.SetupVC("mh.rt", "ucb.rt", qos.BestEffortQoS)
			if err != nil {
				t.Fatal(err)
			}
			ep := f.Endpoint("ucb.rt")
			drv := hobbit.NewDriver(cost.NewMeter())
			board := hobbit.NewBoard(ep)
			drv.AttachBoard(board)
			reg := obs.NewRegistry()
			board.Instrument(ep.Now, reg)
			ep.SetSink(board)
			var frames []string
			deliver := func(_ atm.VCI, ch *mbuf.Chain) {
				frames = append(frames, fmt.Sprintf("%v:%d", ep.Now(), ch.Len()))
				ch.Release()
			}
			drv.SetHandler(vc.DstVCI, deliver)
			tx := hobbit.NewDriver(cost.NewMeter())
			tx.AttachBoard(hobbit.NewBoard(cellFn(func(c atm.Cell) { send(0, c) })))
			payload := make([]byte, 400) // 9 cells
			for k := 0; k < 6; k++ {
				e.Schedule(time.Duration(k)*300*time.Microsecond, func() {
					payload[0] = byte(k)
					if err := tx.Output(vc.SrcVCI, mbuf.FromBytes(payload)); err != nil {
						t.Error(err)
					}
				})
			}
			// Frame 1's cells land 42.4µs apart from about 2.37 ms: reset
			// mid-frame (a shut the handler is reinstalled over at once),
			// then shut the VCI mid-frame 3.
			e.Schedule(2540*time.Microsecond, func() { drv.Shut(vc.DstVCI); drv.SetHandler(vc.DstVCI, deliver) })
			e.Schedule(3180*time.Microsecond, func() { drv.Shut(vc.DstVCI) })
			e.Schedule(time.Second, func() {
				snap := reg.Snapshot()
				h := snap.Hist("hobbit.reasm.time")
				outcome[i] = fmt.Sprintf("frames %v\ncells.in %d frames.in %d sar.errors %d shut-discards %d\nreasm %+v",
					frames, snap.Count("hobbit.cells.in"), snap.Count("hobbit.frames.in"),
					snap.Count("hobbit.sar.errors"), drv.DiscardedShut, *h)
			})
		})
	}
	if outcome[0] != outcome[1] {
		t.Fatalf("board outcome differs:\n per-cell: %s\n pulled:   %s", outcome[0], outcome[1])
	}
	if !strings.Contains(outcome[0], "sar.errors 1") {
		t.Fatalf("the mid-frame reset did not cost a frame: %s", outcome[0])
	}
}

// cellFn adapts a function to hobbit.CellTx.
type cellFn func(atm.Cell)

func (f cellFn) SendCell(c atm.Cell) { f(c) }

// TestInteriorHopEvents counts engine events. Frames sent over three
// hops, each send in an event of its own: interior hops add none per
// cell, and the receiving endpoint one per frame where nothing queues a
// frame's last cell past the bound its watch starts with — the bound
// sees the cells ahead of it on the first hop — and two where a slow hop
// does; the overtaken frame's watch re-arms.
func TestInteriorHopEvents(t *testing.T) {
	count := func(t *testing.T, up, mid, down LinkConfig, frames, cells int) (perFrame float64) {
		e := sim.New(1)
		f := NewFabric(e)
		swA, swB := f.mustAddSwitch("sw-A"), f.mustAddSwitch("sw-B")
		f.ConnectSwitches(swA, swB, mid)
		src, _ := attach(t, f, "a", swA, up, e)
		_, sink := attach(t, f, "b", swB, down, e)
		vc, err := f.SetupVC("a", "b", qos.BestEffortQoS)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < frames; k++ {
			e.Schedule(time.Duration(k)*5*time.Millisecond, func() {
				for i := 0; i < cells; i++ {
					c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI}}
					if i == cells-1 {
						c.PTI = atm.PTIUserData1
					}
					src.SendCell(c)
				}
			})
		}
		e.Run()
		if len(sink.cells) != frames*cells {
			t.Fatalf("delivered %d of %d cells by the frames' events", len(sink.cells), frames*cells)
		}
		return float64(e.EventsExecuted()-uint64(frames)) / float64(frames)
	}
	ds3 := DS3(2 * time.Millisecond)
	if got := count(t, ds3, ds3, ds3, 10, 30); got != 1 {
		t.Errorf("uniform DS3 path: %.2f events per frame beyond the send, want 1", got)
	}
	if got := count(t, TAXI(), ds3, TAXI(), 10, 30); got > 2 {
		t.Errorf("TAXI→DS3→TAXI: %.2f events per frame beyond the send, want ≤ 2", got)
	}
	// The overtaking merge: two sends, two frames, and the slow frame's
	// watch fires at its bound, finds the DS3 busy with the burst, and
	// fires again at the exact arrival.
	e := sim.New(1)
	f := NewFabric(e)
	srcs, sinks := func() ([]*Endpoint, []*collector) {
		swA, swB := Testbed(f)
		slow, _ := attach(t, f, "mh.rt", swA, LinkConfig{RateBps: 100_000_000, Delay: 400 * time.Microsecond, QueueCells: 2048}, e)
		fast, _ := attach(t, f, "mh1.rt", swA, TAXI(), e)
		_, sink := attach(t, f, "ucb.rt", swB, TAXI(), e)
		return []*Endpoint{slow, fast}, []*collector{sink}
	}()
	overtakingMerge(t)(e, f, func(i int, c atm.Cell) { srcs[i].SendCell(c) })
	e.Run()
	if n := len(sinks[0].cells); n != 60 {
		t.Fatalf("overtaking merge delivered %d of 60 cells", n)
	}
	if ev := e.EventsExecuted(); ev < 2+3 {
		t.Errorf("overtaking merge ran %d events: the overtaken frame's watch never re-armed", ev)
	}
}
