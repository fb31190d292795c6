package faults

import (
	"reflect"
	"testing"
	"time"

	"xunet/internal/sim"
	"xunet/internal/trace"
)

// TestZeroConfigDrawsNothing pins the golden-preservation mechanism: a
// plane whose probabilities are all zero never fires a fault AND never
// consumes a random number, so attaching a zero-config plane cannot
// perturb any schedule. sim.Rand.Chance(p<=0) returns false without
// drawing; this test would catch a regression that starts drawing.
func TestZeroConfigDrawsNothing(t *testing.T) {
	const seed = 42
	p := NewPlane(Config{Seed: seed})
	none := trace.Context{}
	cells := p.Cells(1)
	for i := 0; i < 1000; i++ {
		if v := p.Packet(none); v.Drop || v.Dup || v.ExtraDelay != 0 {
			t.Fatalf("zero-config Packet verdict %+v", v)
		}
		if v := p.SigMsg(none); v.Drop || v.Dup || v.ExtraDelay != 0 {
			t.Fatalf("zero-config SigMsg verdict %+v", v)
		}
		if cells.Drop(none, 0) || cells.Corrupt(none, 0) || p.DevDrop() {
			t.Fatal("zero-config plane injected a fault")
		}
	}
	if cells.bad {
		t.Fatal("zero-config plane entered GE bad state")
	}
	// The RNGs must be untouched: each next output equals a fresh RNG's
	// first output.
	if got, want := p.rng.Uint64(), sim.NewRand(seed).Uint64(); got != want {
		t.Fatalf("zero-config plane consumed randomness: next=%d fresh=%d", got, want)
	}
	if got, want := cells.rng.Uint64(), sim.NewRand(sim.ShardSeed(seed, 1)).Uint64(); got != want {
		t.Fatalf("zero-config cell stream consumed randomness: next=%d fresh=%d", got, want)
	}
	for _, c := range p.Obs.Snapshot().Counters {
		if c.Value != 0 {
			t.Errorf("zero-config plane counted %s=%d", c.Name, c.Value)
		}
	}
}

// TestSameSeedSameSchedule is determinism at the plane level: two planes
// with identical configs produce the identical verdict sequence and the
// identical counters.
func TestSameSeedSameSchedule(t *testing.T) {
	cfg := Config{
		Seed: 7, PktLoss: 0.1, PktDup: 0.05, PktDelayProb: 0.2, PktDelayMax: time.Millisecond,
		SigLoss: 0.02, DevLoss: 0.01, CellCorrupt: 0.03,
		GE: GEConfig{PGoodToBad: 0.05, PBadToGood: 0.3, LossBad: 0.8},
	}
	a, b := NewPlane(cfg), NewPlane(cfg)
	none := trace.Context{}
	ac, bc := a.Cells(3), b.Cells(3)
	for i := 0; i < 5000; i++ {
		if va, vb := a.Packet(none), b.Packet(none); va != vb {
			t.Fatalf("packet %d: %+v vs %+v", i, va, vb)
		}
		if va, vb := a.SigMsg(none), b.SigMsg(none); va != vb {
			t.Fatalf("sigmsg %d: %+v vs %+v", i, va, vb)
		}
		if ac.Drop(none, 0) != bc.Drop(none, 0) || ac.bad != bc.bad {
			t.Fatalf("cell %d: GE state diverged", i)
		}
		if ac.Corrupt(none, 0) != bc.Corrupt(none, 0) || a.DevDrop() != b.DevDrop() {
			t.Fatalf("draw %d diverged", i)
		}
	}
	if sa, sb := a.Obs.Snapshot().Text(), b.Obs.Snapshot().Text(); sa != sb {
		t.Fatalf("counters diverged:\n%s\nvs\n%s", sa, sb)
	}
	// And a different seed must produce a different schedule (sanity that
	// the seed is actually wired in).
	cfg2 := cfg
	cfg2.Seed = 8
	c, d := NewPlane(cfg2).Cells(3), NewPlane(cfg).Cells(3)
	diverged := false
	for i := 0; i < 5000 && !diverged; i++ {
		if c.Drop(none, 0) != d.Drop(none, 0) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 7 and 8 produced identical cell-loss schedules")
	}
}

// TestGilbertElliottBursts checks the point of the GE model: losses
// cluster. With LossGood=0 every drop happens inside a bad-state dwell,
// whose geometric mean length 1/PBadToGood makes consecutive-drop runs
// much longer than uniform loss at the same average rate would produce.
func TestGilbertElliottBursts(t *testing.T) {
	p := NewPlane(Config{Seed: 3, GE: GEConfig{
		PGoodToBad: 0.005, PBadToGood: 0.2, LossGood: 0, LossBad: 1.0,
	}})
	none := trace.Context{}
	cells := p.Cells(1)
	const n = 200_000
	drops, runs := 0, 0
	inRun := false
	for i := 0; i < n; i++ {
		if cells.Drop(none, 0) {
			drops++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if drops == 0 {
		t.Fatal("GE model dropped nothing")
	}
	meanRun := float64(drops) / float64(runs)
	// With PBadToGood=0.2 and LossBad=1 the mean burst is ~5 cells;
	// uniform loss at the same rate would give ~1.0x. Require well above
	// uniform.
	if meanRun < 2.0 {
		t.Errorf("mean drop-burst length %.2f; GE losses are not bursty", meanRun)
	}
	if got := p.Obs.Snapshot().Count("faults.cell.drop"); got != uint64(drops) {
		t.Errorf("cell.drop counter %d != observed drops %d", got, drops)
	}
}

// TestCertainFaultsCount pins the counter plumbing with probability-1
// faults.
func TestCertainFaultsCount(t *testing.T) {
	p := NewPlane(Config{PktLoss: 1, SigLoss: 1, DevLoss: 1, CellCorrupt: 1})
	none := trace.Context{}
	cells := p.Cells(1)
	const n = 100
	for i := 0; i < n; i++ {
		if !p.Packet(none).Drop || !p.SigMsg(none).Drop || !p.DevDrop() || !cells.Corrupt(none, 0) {
			t.Fatal("probability-1 fault did not fire")
		}
		p.TrunkDownDrop(none, 0)
	}
	snap := p.Obs.Snapshot()
	for _, name := range []string{"faults.pkt.drop", "faults.sig.drop", "faults.dev.drop", "faults.cell.corrupt", "faults.trunk.flap_drops"} {
		if got := snap.Count(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestCellFatesArePerTrunk is what lets the fabric take cells in lazily:
// a trunk's cell fates depend only on that trunk's own cell sequence.
// Trunk 1's fates are drawn alone, then again with other trunks' cells
// and the plane's own packet, signaling and device draws interleaved at
// random — as a scrape tick or a management read would reorder them —
// and must come out the same, spans at each cell's own arrival time
// included.
func TestCellFatesArePerTrunk(t *testing.T) {
	cfg := Config{
		Seed: 11, PktLoss: 0.1, SigLoss: 0.1, DevLoss: 0.1, CellCorrupt: 0.05,
		GE: GEConfig{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.6},
	}
	type fate struct{ drop, corrupt bool }
	run := func(noise bool) ([]fate, []trace.Span) {
		p := NewPlane(cfg)
		tc := trace.NewCollector(func() time.Duration { return time.Hour })
		tc.SetEnabled(true)
		p.AttachTrace(tc, func() time.Duration { return time.Hour })
		root := tc.StartTrace("test", "cells", 1)
		mine, other := p.Cells(1), p.Cells(2)
		rng := sim.NewRand(5)
		var fates []fate
		for i := 0; i < 1000; i++ {
			for noise && rng.Intn(3) > 0 {
				p.Packet(trace.Context{})
				p.SigMsg(trace.Context{})
				p.DevDrop()
				other.Drop(trace.Context{}, 0)
				other.Corrupt(trace.Context{}, 0)
			}
			at := time.Duration(i) * time.Microsecond
			f := fate{drop: mine.Drop(root, at)}
			if !f.drop {
				f.corrupt = mine.Corrupt(root, at)
			}
			fates = append(fates, f)
		}
		tc.FinishTrace(root, "OK")
		tr := tc.Completed()[0]
		return fates, tr.Spans
	}
	alone, aloneSpans := run(false)
	mixed, mixedSpans := run(true)
	if !reflect.DeepEqual(alone, mixed) {
		t.Fatal("a trunk's cell fates changed with draws on other streams")
	}
	if !reflect.DeepEqual(aloneSpans, mixedSpans) || len(aloneSpans) < 10 {
		t.Fatalf("fault spans differ or too few (%d vs %d)", len(aloneSpans), len(mixedSpans))
	}
	for _, s := range aloneSpans[1:] {
		if s.Start != s.End || s.Start >= time.Hour {
			t.Fatalf("span %s at %v..%v, want the cell's arrival time", s.Name, s.Start, s.End)
		}
	}
}

// TestDelayBounded checks injected delays stay within the configured
// bound and actually vary.
func TestDelayBounded(t *testing.T) {
	p := NewPlane(Config{PktDelayProb: 1, PktDelayMax: time.Millisecond})
	none := trace.Context{}
	seen := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		v := p.Packet(none)
		if v.ExtraDelay < 0 || v.ExtraDelay >= time.Millisecond {
			t.Fatalf("delay %v outside [0, 1ms)", v.ExtraDelay)
		}
		seen[v.ExtraDelay] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct delays in 1000 draws", len(seen))
	}
}

// TestEnabled pins Config.Enabled against each knob.
func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, c := range []Config{
		{PktLoss: 0.1}, {PktDup: 0.1}, {PktDelayProb: 0.1},
		{SigLoss: 0.1}, {SigDup: 0.1}, {SigDelayProb: 0.1},
		{GE: GEConfig{PGoodToBad: 0.1}}, {GE: GEConfig{LossGood: 0.1}},
		{CellCorrupt: 0.1}, {FlapMeanUp: time.Second}, {DevLoss: 0.1},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v reports disabled", c)
		}
	}
	if !(Config{FlapMeanUp: time.Second, FlapDown: time.Second}).Enabled() {
		t.Error("flap config reports disabled")
	}
}
