package tseries

import (
	"strings"
	"testing"
	"time"

	"xunet/internal/obs"
)

func tick(st *Store, i int) { st.Tick(time.Duration(i) * 10 * time.Millisecond) }

func TestCounterDeltasAndBaseline(t *testing.T) {
	st := New(Config{Capacity: 8})
	c := &obs.Counter{}
	c.Add(100) // pre-arm history must not appear as a delta
	st.TrackRateFunc("c", c.Value, 0, 0)
	c.Add(3)
	tick(st, 1)
	c.Add(5)
	tick(st, 2)
	ex := st.Export()
	if len(ex.Series) != 1 || ex.Series[0].Name != "c" {
		t.Fatalf("series = %+v", ex.Series)
	}
	pts := ex.Series[0].Points
	if len(pts) != 2 || pts[0].V != 3 || pts[0].Aux != 103 || pts[1].V != 5 || pts[1].Aux != 108 {
		t.Fatalf("points = %+v", pts)
	}
}

func TestCounterRollbackClamps(t *testing.T) {
	st := New(Config{Capacity: 8})
	v := uint64(10)
	st.TrackRateFunc("c", func() uint64 { return v }, 0, 0)
	v = 7 // a level read through a registry Func went down
	tick(st, 1)
	v = 9
	tick(st, 2)
	pts := st.Export().Series[0].Points
	if pts[0].V != 0 {
		t.Fatalf("rollback delta = %d, want 0 (clamped)", pts[0].V)
	}
	if pts[1].V != 2 {
		t.Fatalf("post-rollback delta = %d, want 2", pts[1].V)
	}
}

func TestRateScaling(t *testing.T) {
	st := New(Config{Capacity: 8})
	v := uint64(0)
	// e.g. utilization in basis points: delta cells x 2831ns x 10000 / 10ms
	st.TrackRateFunc("util", func() uint64 { return v }, 2831*10000, int64(10*time.Millisecond))
	v = 1000
	tick(st, 1)
	pts := st.Export().Series[0].Points
	want := int64(1000) * 2831 * 10000 / int64(10*time.Millisecond)
	if pts[0].V != want {
		t.Fatalf("scaled delta = %d, want %d", pts[0].V, want)
	}
}

func TestGaugeAndHistSampling(t *testing.T) {
	st := New(Config{Capacity: 8})
	reg := obs.NewRegistry()
	g, h := reg.Gauge("g"), reg.Histogram("h")
	st.TrackRegistry("", reg)
	g.Set(7)
	g.Set(2)
	h.Observe(4 * time.Millisecond)
	tick(st, 1)
	ex := st.Export()
	var gp, hp Point
	for _, s := range ex.Series {
		switch s.Name {
		case "g":
			gp = s.Points[0]
		case "h":
			hp = s.Points[0]
		}
	}
	if gp.V != 2 || gp.Aux != 7 {
		t.Fatalf("gauge point = %+v, want value=2 hi=7", gp)
	}
	if hp.V != 1 || hp.Aux <= 0 {
		t.Fatalf("hist point = %+v, want count delta 1 and positive p99", hp)
	}
}

func TestRingWraps(t *testing.T) {
	st := New(Config{Capacity: 4})
	v, lvl := uint64(0), int64(0)
	st.TrackRateFunc("c", func() uint64 { return v }, 0, 0)
	// A level that flips every tick fires or clears its rule each time.
	st.TrackGaugeFunc("g", func() (int64, int64) { return lvl, 0 })
	st.AddRule(Rule{Name: "odd", Series: "g", Threshold: 1})
	const n = eventCapacity + 10
	for i := 1; i <= n; i++ {
		v += uint64(i)
		lvl = int64(i % 2)
		tick(st, i)
	}
	if evs := st.Events(); len(evs) != eventCapacity || evs[0].Tick != n-eventCapacity+1 || evs[len(evs)-1].Tick != n {
		t.Fatalf("event ring kept %d events from tick %d, want %d from tick %d",
			len(evs), evs[0].Tick, eventCapacity, n-eventCapacity+1)
	}
	pts := st.Export().Series[0].Points // "c" sorts before "g"
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	// Oldest-first: the deltas of the last four ticks.
	for i, want := range []int64{n - 3, n - 2, n - 1, n} {
		if pts[i].V != want {
			t.Fatalf("pts[%d].V = %d, want %d (%+v)", i, pts[i].V, want, pts)
		}
	}
}

func TestTrackRegistryRescansOnGrowth(t *testing.T) {
	st := New(Config{Capacity: 8})
	reg := obs.NewRegistry()
	reg.Counter("a").Add(1)
	st.TrackRegistry("m.", reg)
	tick(st, 1)
	reg.Counter("b").Add(5) // lazily registered after arm
	tick(st, 2)
	ex := st.Export()
	names := make(map[string]int)
	for _, s := range ex.Series {
		names[s.Name] = len(s.Points)
	}
	if names["m.a"] != 2 {
		t.Fatalf("m.a points = %d, want 2 (%v)", names["m.a"], names)
	}
	if names["m.b"] != 1 {
		t.Fatalf("m.b points = %d, want 1 (adopted at tick 2) (%v)", names["m.b"], names)
	}
}

func TestWatermarkRuleEdges(t *testing.T) {
	st := New(Config{Capacity: 8})
	depth := int64(0)
	st.TrackGaugeFunc("q.depth", func() (int64, int64) { return depth, depth })
	st.AddRule(Rule{Name: "deep", Series: "q.*", Threshold: 5})
	var events []HealthEvent
	st.OnHealthEvent(func(ev HealthEvent) { events = append(events, ev) })

	tick(st, 1) // in band: nothing
	depth = 6
	tick(st, 2) // first out-of-band tick: fire
	tick(st, 3) // still firing: no re-fire
	depth = 1
	tick(st, 4) // clear
	depth = 9
	tick(st, 5) // fire again

	if len(events) != 3 {
		t.Fatalf("events = %+v, want fire/clear/fire", events)
	}
	if events[0].State != "fire" || events[0].Tick != 2 || events[0].Series != "q.depth" {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].State != "clear" || events[1].Tick != 4 {
		t.Fatalf("second event = %+v", events[1])
	}
	if events[2].State != "fire" || events[2].Tick != 5 {
		t.Fatalf("third event = %+v", events[2])
	}
	if got := st.Events(); len(got) != 3 {
		t.Fatalf("ring retained %d events, want 3", len(got))
	}
	health := st.HealthText()
	if !strings.Contains(health, "FIRING") || !strings.Contains(health, "deep") {
		t.Fatalf("health text missing firing rule:\n%s", health)
	}
}

func TestRuleOnAux(t *testing.T) {
	st := New(Config{Capacity: 8})
	val, hi := int64(10), int64(10)
	st.TrackGaugeFunc("g", func() (int64, int64) { return val, hi })
	st.AddRule(Rule{Name: "hiwater", Series: "g", Threshold: 50, OnAux: true})
	tick(st, 1) // V past the threshold, Aux not: nothing
	val, hi = 60, 60
	tick(st, 2)
	val = 1 // V back in band, Aux still high: no clear
	tick(st, 3)
	events := st.Events()
	if len(events) != 1 || events[0].Tick != 2 || events[0].Value != 60 {
		t.Fatalf("events = %+v, want one fire on the high-water mark at tick 2", events)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var st *Store
	if st.Enabled() {
		t.Fatal("nil store reports enabled")
	}
	st.TrackRateFunc("c", func() uint64 { return 0 }, 0, 0)
	st.AddRule(Rule{Name: "r", Series: "c"})
	st.Tick(time.Second)
	if st.JSON() == "" || st.Text() == "" || st.HealthText() == "" || st.HealthJSON() == "" {
		t.Fatal("nil store rendered empty output")
	}
	var p *Peak
	p.Note(5)
	if p.Take() != 0 {
		t.Fatal("nil peak returned nonzero")
	}
}

func TestPeak(t *testing.T) {
	var p Peak
	p.Note(3)
	p.Note(9)
	p.Note(4)
	if got := p.Take(); got != 9 {
		t.Fatalf("Take = %d, want 9", got)
	}
	if got := p.Take(); got != 0 {
		t.Fatalf("second Take = %d, want 0 after reset", got)
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() string {
		st := New(Config{Capacity: 8})
		reg := obs.NewRegistry()
		reg.Counter("z").Add(2)
		reg.Counter("a").Add(1)
		reg.Gauge("g").Set(4)
		reg.Histogram("h").Observe(time.Millisecond)
		st.TrackRegistry("r.", reg)
		st.AddRule(Rule{Name: "rule", Series: "r.g", Threshold: 1})
		tick(st, 1)
		tick(st, 2)
		return st.JSON()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same-input exports differ:\n%s\n%s", a, b)
	}
}

func TestTickSteadyStateDoesNotAllocate(t *testing.T) {
	st := New(Config{Capacity: 64})
	reg := obs.NewRegistry()
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(2)
	reg.Histogram("h").Observe(time.Millisecond)
	st.TrackRegistry("r.", reg)
	st.AddRule(Rule{Name: "rule", Series: "r.g", Threshold: 1})
	st.Tick(0) // adopt + first fire; rule state maps populate here
	now := time.Duration(0)
	avg := testing.AllocsPerRun(100, func() {
		now += 10 * time.Millisecond
		st.Tick(now)
	})
	if avg > 0 {
		t.Fatalf("steady-state Tick allocates %.1f objects/op, want 0", avg)
	}
}
