// Package faults is the deterministic fault-injection plane. It decides
// — from its own seeded RNG, never the workload's — whether each packet,
// signaling message, cell, or device indication is lost, duplicated,
// delayed, or corrupted, and schedules trunk up/down flapping. Because
// the plane has a dedicated sim.Rand, enabling faults never perturbs the
// workload's random sequence, and a run's fault schedule is a pure
// function of the fault seed: same seed, same faults, byte-identical
// replay.
//
// Every hook site holds a *Plane pointer that is nil by default, so the
// disabled cost is a single pointer comparison (gated under 5 ns by
// BenchmarkFaultsOverhead, like the telemetry and trace gates). Every
// injected fault increments a counter in the plane's own obs.Registry
// and, when the affected unit carries a sampled trace context, records a
// zero-width "faults" span so chaos shows up inside call traces.
package faults

import (
	"time"

	"xunet/internal/obs"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// GEConfig parameterizes the Gilbert–Elliott two-state burst-loss model
// applied to cells on switch trunks: the trunk wanders between a good
// and a bad state with the given transition probabilities (evaluated per
// cell), and loses cells at the state's loss rate. Burstiness comes from
// dwelling in the bad state, which uniform per-cell loss cannot model.
type GEConfig struct {
	PGoodToBad float64 // per-cell probability of entering the bad state
	PBadToGood float64 // per-cell probability of leaving it
	LossGood   float64 // cell loss probability while good
	LossBad    float64 // cell loss probability while bad
}

func (g GEConfig) enabled() bool {
	return g.PGoodToBad > 0 || g.LossGood > 0 || g.LossBad > 0
}

// Config selects which faults the plane injects and how often. The zero
// value injects nothing; probabilities are per-unit (per packet, per
// signaling message, per cell, per indication).
type Config struct {
	// Seed seeds the plane's private RNG. Zero selects a fixed default
	// so a zero-value-but-enabled config is still deterministic.
	Seed uint64

	// Packet faults apply to every memnet link transmission.
	PktLoss      float64
	PktDup       float64
	PktDelayProb float64
	PktDelayMax  time.Duration // extra latency drawn uniform in [0, max)

	// Signaling-message faults apply to sighost-to-sighost messages on
	// the signaling PVC (the paper's "1% signaling loss" knob).
	SigLoss      float64
	SigDup       float64
	SigDelayProb float64
	SigDelayMax  time.Duration

	// Cell faults apply per cell on switch-to-switch trunks, alongside
	// the existing queue-overflow drops.
	GE          GEConfig
	CellCorrupt float64 // flip a payload byte; AAL5 CRC-32 catches it

	// Trunk flapping: trunks stay up for roughly FlapMeanUp (jittered by
	// the plane RNG), then drop every cell for FlapDown. Zero disables.
	FlapMeanUp time.Duration
	FlapDown   time.Duration

	// DevLoss drops kernel pseudo-device indications as if the
	// /dev/anand indication buffer were under pressure.
	DevLoss float64
}

// Verdict is the plane's decision for one packet or signaling message.
type Verdict struct {
	Drop       bool
	Dup        bool
	ExtraDelay time.Duration
}

// Plane is one fault-injection domain: a seeded RNG plus fault counters.
// Packet, signaling, device and flap draws come from its stream in
// simulation-event order. Cell fates cannot: the fabric takes a trunk's
// cells in when something pulls it (DESIGN.md §9), so each trunk draws
// from its own substream (Cells), and who looks when changes no fate.
type Plane struct {
	cfg  Config
	seed uint64
	rng  *sim.Rand

	// Obs holds the plane's own fault counters (faults.* namespace),
	// kept out of the workload registries so fault-free runs render
	// byte-identical reports.
	Obs *obs.Registry

	tc  *trace.Collector
	now func() time.Duration

	pkt, sig              unit
	cellDrop, cellCorrupt *obs.Counter
	trunkFlaps, flapDrops *obs.Counter
	devDrop               *obs.Counter
}

// unit is one kind of verdict, packets or signaling messages: its
// probabilities, and the counter and span name of each fault it draws.
type unit struct {
	loss, dup, delayProb         float64
	delayMax                     time.Duration
	drops, dups, delays          *obs.Counter
	dropSpan, dupSpan, delaySpan string
}

// newUnit registers the faults.<name>.{drop,dup,delay} counters.
func (p *Plane) newUnit(name string, loss, dup, delayProb float64, delayMax time.Duration) unit {
	u := unit{loss: loss, dup: dup, delayProb: delayProb, delayMax: delayMax,
		dropSpan: name + ".drop", dupSpan: name + ".dup", delaySpan: name + ".delay"}
	u.drops = p.Obs.Counter("faults." + u.dropSpan)
	u.dups = p.Obs.Counter("faults." + u.dupSpan)
	u.delays = p.Obs.Counter("faults." + u.delaySpan)
	return u
}

// NewPlane builds a plane from cfg. The plane is ready to be attached to
// transports; AttachTrace additionally lets it record fault spans.
func NewPlane(cfg Config) *Plane {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0xFA017C0DE // distinct from any workload seed in use
	}
	p := &Plane{cfg: cfg, seed: seed, rng: sim.NewRand(seed), Obs: obs.NewRegistry()}
	p.pkt = p.newUnit("pkt", cfg.PktLoss, cfg.PktDup, cfg.PktDelayProb, cfg.PktDelayMax)
	p.sig = p.newUnit("sig", cfg.SigLoss, cfg.SigDup, cfg.SigDelayProb, cfg.SigDelayMax)
	p.cellDrop = p.Obs.Counter("faults.cell.drop")
	p.cellCorrupt = p.Obs.Counter("faults.cell.corrupt")
	p.trunkFlaps = p.Obs.Counter("faults.trunk.flaps")
	p.flapDrops = p.Obs.Counter("faults.trunk.flap_drops")
	p.devDrop = p.Obs.Counter("faults.dev.drop")
	return p
}

// AttachTrace connects the plane to the testbed's trace collector so
// faults on traced units appear as spans inside the call's span tree.
func (p *Plane) AttachTrace(tc *trace.Collector, now func() time.Duration) {
	p.tc, p.now = tc, now
}

// span records a zero-width fault span under parent, now, if it is
// sampled; spanAt records it at the given instant.
func (p *Plane) span(parent trace.Context, name string) {
	if p.now != nil {
		p.spanAt(parent, name, p.now())
	}
}

func (p *Plane) spanAt(parent trace.Context, name string, at time.Duration) {
	if p.tc != nil && parent.Sampled() {
		p.tc.Record(parent, "faults", name, at, at)
	}
}

// Packet returns the verdict for one packet on a memnet link.
func (p *Plane) Packet(tc trace.Context) Verdict { return p.verdict(&p.pkt, tc) }

// SigMsg returns the verdict for one sighost-to-sighost signaling
// message about to be sent on the peer PVC.
func (p *Plane) SigMsg(tc trace.Context) Verdict { return p.verdict(&p.sig, tc) }

// verdict draws one unit's fate. Draw order is fixed (loss, dup, delay)
// so the fault schedule is stable; disabled probabilities draw nothing
// (sim.Rand.Chance).
func (p *Plane) verdict(u *unit, tc trace.Context) Verdict {
	var v Verdict
	if p.rng.Chance(u.loss) {
		u.drops.Inc()
		p.span(tc, u.dropSpan)
		v.Drop = true
		return v
	}
	if p.rng.Chance(u.dup) {
		u.dups.Inc()
		p.span(tc, u.dupSpan)
		v.Dup = true
	}
	if p.rng.Chance(u.delayProb) {
		v.ExtraDelay = p.rng.Jitter(u.delayMax)
		if v.ExtraDelay > 0 {
			u.delays.Inc()
			p.span(tc, u.delaySpan)
		}
	}
	return v
}

// Cells is one trunk's cell-fate stream: its Gilbert–Elliott state and
// a SplitMix substream of the plane seed (as sim.ShardSeed derives), so
// a cell's fate depends only on the cells its trunk carried before it.
// Counters and spans go to the plane, spans at the cell's arrival.
type Cells struct {
	p   *Plane
	rng *sim.Rand
	bad bool
}

// Cells returns stream number id (≥ 1; 0 would be the plane's own).
func (p *Plane) Cells(id int) *Cells {
	return &Cells{p: p, rng: sim.NewRand(sim.ShardSeed(p.seed, id))}
}

// Drop steps the Gilbert–Elliott state and reports whether the cell
// arriving at at is lost.
func (c *Cells) Drop(tc trace.Context, at time.Duration) bool {
	ge := c.p.cfg.GE
	if !ge.enabled() {
		return false
	}
	if c.bad {
		if c.rng.Chance(ge.PBadToGood) {
			c.bad = false
		}
	} else if c.rng.Chance(ge.PGoodToBad) {
		c.bad = true
	}
	loss := ge.LossGood
	if c.bad {
		loss = ge.LossBad
	}
	if c.rng.Chance(loss) {
		c.p.cellDrop.Inc()
		c.p.spanAt(tc, "cell.drop", at)
		return true
	}
	return false
}

// Corrupt reports whether the payload of the cell arriving at at should
// be corrupted. Corruption surfaces as an AAL5 CRC error at reassembly,
// so the frame is discarded — behaviorally a loss, detected where real
// hardware detects it.
func (c *Cells) Corrupt(tc trace.Context, at time.Duration) bool {
	if c.rng.Chance(c.p.cfg.CellCorrupt) {
		c.p.cellCorrupt.Inc()
		c.p.spanAt(tc, "cell.corrupt", at)
		return true
	}
	return false
}

// TrunkDownDrop counts a cell arriving at at on a flapped-down trunk.
func (p *Plane) TrunkDownDrop(tc trace.Context, at time.Duration) {
	p.flapDrops.Inc()
	p.spanAt(tc, "trunk.down", at)
}

// DevDrop reports whether a kernel pseudo-device indication is dropped
// (simulated indication-buffer pressure).
func (p *Plane) DevDrop() bool {
	if p.rng.Chance(p.cfg.DevLoss) {
		p.devDrop.Inc()
		return true
	}
	return false
}

// FlapEnabled reports whether trunk flapping is configured.
func (p *Plane) FlapEnabled() bool { return p.cfg.FlapMeanUp > 0 && p.cfg.FlapDown > 0 }

// NextUp returns the next up-time before a flap: FlapMeanUp jittered by
// ±50% from the plane RNG.
func (p *Plane) NextUp() time.Duration {
	return p.cfg.FlapMeanUp/2 + p.rng.Jitter(p.cfg.FlapMeanUp)
}

// DownFor returns the outage length of one flap and counts it.
func (p *Plane) DownFor() time.Duration {
	p.trunkFlaps.Inc()
	return p.cfg.FlapDown
}
