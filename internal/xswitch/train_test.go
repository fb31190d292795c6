package xswitch

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/qos"
	"xunet/internal/sim"
)

// The lazily committed trunk scheduler must be invisible in virtual
// time: every scenario here runs once on the real trunks and once on
// refNet, the one-transmit-event-per-cell discipline written out
// plainly, and the receiver-side traces — cells, exact arrival times,
// per-class counters, drop and unroutable counts, final clock — must
// match field for field.

// trainTrace is the observable outcome of a scenario.
type trainTrace struct {
	Cells      []atm.Cell
	Times      []time.Duration
	Class      ClassCellStats
	Unroutable uint64
	Final      time.Duration
}

// refNet runs the per-cell discipline over a real Fabric's topology: it
// borrows each trunk's configuration, class and translation tables,
// fault plane and flap state (so SetupVC, Release and StartFlapping act
// on both alike) and keeps its own queues, credits, counters and events.
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
	geBad    bool
	sent     [3]uint64
	dropped  [3]uint64
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
		if r.t.down {
			r.dropped[cls]++
			fp.TrunkDownDrop(c.TC)
			return
		}
		if fp.CellDrop(&r.geBad, c.TC) {
			r.dropped[cls]++
			return
		}
		if fp.CellCorrupt(c.TC) {
			c.Payload[0] ^= 0xA5
		}
	}
	if len(r.queues[cls]) >= r.t.cfg.QueueCells {
		r.dropped[cls]++
		return
	}
	r.queues[cls] = append(r.queues[cls], c)
	if !r.draining {
		r.tx()
	}
}

// tx is the transmit event: pick one cell, put it on the wire, come back
// one serialization time later; a pick that finds nothing ends the busy
// period and replenishes the credits.
func (r *refTrunk) tx() {
	if len(r.queues[0])+len(r.queues[1])+len(r.queues[2]) == 0 {
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

func (r *refTrunk) arrive(c atm.Cell) {
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
		to.sink.ReceiveCell(c)
	}
}

func (n *refNet) classStats() ClassCellStats {
	var out ClassCellStats
	for _, r := range n.trunks {
		for cls := 0; cls < 3; cls++ {
			out.Sent[cls] += r.sent[cls]
			out.Dropped[cls] += r.dropped[cls]
		}
	}
	return out
}

// trainRig is one scenario's network: sources on sw-A, the sink on sw-B.
// up, mid and down are the source attachment, inter-switch and sink
// attachment links. shards > 1 puts sw-B and the sink on the group's
// second engine, making the inter-switch trunk a shard boundary.
type trainRig struct {
	up, mid, down LinkConfig
	sources       int
	faults        *faults.Config
	shards        int
}

// chain is the rig the original scenarios ran on: one source and every
// link alike, so queue limits apply on all three hops.
func chain(cfg LinkConfig) trainRig { return trainRig{up: cfg, mid: cfg, down: cfg, sources: 1} }

// trainScenario drives a rig: e is the engine the sources live on and
// send(i, c) transmits a cell from source i.
type trainScenario func(e *sim.Engine, f *Fabric, send func(src int, c atm.Cell))

// runTrain builds the rig, plays the scenario — on the real trunks, or
// on refNet when ref is set — and returns what the sink saw.
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
	if rig.faults != nil {
		f.Faults = faults.NewPlane(*rig.faults)
	}
	swA, err := f.AddSwitchOn("sw-A", e)
	if err != nil {
		t.Fatal(err)
	}
	swB, err := f.AddSwitchOn("sw-B", eB)
	if err != nil {
		t.Fatal(err)
	}
	f.ConnectSwitches(swA, swB, rig.mid)
	var srcs []*Endpoint
	for i := 0; i < rig.sources; i++ {
		name := "mh.rt"
		if i > 0 {
			name = fmt.Sprintf("mh%d.rt", i)
		}
		ep, err := f.AttachOn(atm.Addr(name), &collector{e: e}, swA, rig.up, e)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, ep)
	}
	sink := &collector{e: eB}
	if _, err := f.AttachOn("ucb.rt", sink, swB, rig.down, eB); err != nil {
		t.Fatal(err)
	}
	var rn *refNet
	send := func(src int, c atm.Cell) { srcs[src].SendCell(c) }
	if ref {
		rn = newRefNet(e)
		send = func(src int, c atm.Cell) { rn.of(srcs[src].uplink).send(c) }
	}
	scenario(e, f, send)
	if g != nil {
		g.Run()
	} else {
		e.Run()
	}
	tr := trainTrace{Cells: sink.cells, Times: sink.times, Final: eB.Now()}
	if rig.shards > 1 && len(sink.times) > 0 {
		// A shard group stops on a window edge, not on its last event.
		tr.Final = sink.times[len(sink.times)-1]
	}
	if ref {
		tr.Class, tr.Unroutable = rn.classStats(), rn.unroutable
	} else {
		tr.Class = f.ClassStats()
		for _, sw := range f.switches {
			tr.Unroutable += sw.Unroutable
		}
	}
	return tr
}

// checkTrain requires the real trunks and the reference to agree.
func checkTrain(t *testing.T, rig trainRig, minCells int, scenario trainScenario) {
	t.Helper()
	want := runTrain(t, rig, true, scenario)
	got := runTrain(t, rig, false, scenario)
	if len(want.Cells) < minCells {
		t.Fatalf("scenario too weak: only %d cells delivered", len(want.Cells))
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("lazy trunk diverges from the per-cell reference:\n per-cell: %d cells, class=%+v, unroutable=%d, final=%v\n lazy:     %d cells, class=%+v, unroutable=%d, final=%v",
		len(want.Cells), want.Class, want.Unroutable, want.Final,
		len(got.Cells), got.Class, got.Unroutable, got.Final)
	for i := 0; i < len(want.Cells) && i < len(got.Cells); i++ {
		if want.Cells[i] != got.Cells[i] || want.Times[i] != got.Times[i] {
			t.Fatalf("first divergence at arrival %d: per-cell (%v, vci=%d, p0=%d) vs lazy (%v, vci=%d, p0=%d)",
				i, want.Times[i], want.Cells[i].VCI, want.Cells[i].Payload[0],
				got.Times[i], got.Cells[i].VCI, got.Cells[i].Payload[0])
		}
	}
	t.Fatalf("cell count mismatch: %d vs %d", len(want.Cells), len(got.Cells))
}

// setupClassVCs provisions one VC per service class from the named
// source, in fixed order. They reserve nothing: admission control is
// not under test, and a rate-zero trunk has nothing to reserve.
func setupClassVCs(t *testing.T, f *Fabric, from atm.Addr) [3]*VC {
	t.Helper()
	var vcs [3]*VC
	for i, q := range []qos.QoS{
		{Class: qos.BestEffort},
		{Class: qos.VBR},
		{Class: qos.CBR},
	} {
		vc, err := f.SetupVC(from, "ucb.rt", q)
		if err != nil {
			t.Fatalf("SetupVC class %d: %v", i, err)
		}
		vcs[i] = vc
	}
	return vcs
}

func cellOn(vc *VC, seq byte) atm.Cell {
	c := atm.Cell{Header: atm.Header{VCI: vc.SrcVCI, PTI: atm.PTIUserData0}}
	c.Payload[0] = seq
	return c
}

func TestCellTrainEquivalence(t *testing.T) {
	ds3 := LinkConfig{RateBps: 45_000_000, Delay: 2 * time.Millisecond, QueueCells: 2048}
	ser := time.Duration(atm.CellSize * 8 * uint64(time.Second) / ds3.RateBps)
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
			rig:      chain(ds3),
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
			// very same instants, 2.2× faster than it drains.
			name:     "two inputs merge onto one trunk",
			rig:      trainRig{up: TAXI(), mid: ds3, down: TAXI(), sources: 2},
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
			// Burst loss, corruption and flapping armed: the plane's draws
			// happen per send, in send order, so both runs lose and flip
			// the same cells.
			name: "fault plane armed",
			rig: trainRig{up: TAXI(), mid: ds3, down: TAXI(), sources: 1, faults: &faults.Config{
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
			// The inter-switch trunk crosses a shard boundary: it keeps a
			// transmit event per cell, and the reference runs flat.
			name:     "boundary trunk under a two shard group",
			rig:      trainRig{up: TAXI(), mid: ds3, down: TAXI(), sources: 2, shards: 2},
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkTrain(t, tc.rig, tc.minCells, tc.scenario) })
	}
}

// TestCellTrainRandomSchedules replays seeded random send schedules —
// link profiles, queue limits, burst sizes, classes and instants all
// drawn — against the reference. Rates that divide one another put
// arrivals exactly on the next trunk's pick instants all the time; the
// engine runs the arrival first because it was scheduled first, which
// holds (and is what send's tie rule assumes) as long as a hop's
// serialization plus propagation outlasts the next hop's serialization.
// Every profile pair here keeps that: the slowest cell time, E3's
// 12.3 µs, is below the quickest hop, 12.4 µs.
func TestCellTrainRandomSchedules(t *testing.T) {
	profiles := []LinkConfig{
		TAXI(),
		DS3(2 * time.Millisecond),
		OC12(300 * time.Microsecond),
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
		type burst struct {
			at    time.Duration
			src   int
			cells []int // class per cell
		}
		var bursts []burst
		for n := 3 + rng.Intn(10); n > 0; n-- {
			b := burst{at: time.Duration(rng.Intn(400_000)), src: rng.Intn(rig.sources)}
			for k := 1 + rng.Intn(40); k > 0; k-- {
				b.cells = append(b.cells, rng.Intn(3))
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
						for _, cls := range b.cells {
							seq++
							send(b.src, cellOn(vcs[b.src][cls], seq))
						}
					})
				}
			})
		})
	}
}
