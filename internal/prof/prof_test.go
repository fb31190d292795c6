package prof

import (
	"strings"
	"testing"
)

func TestLabelInterning(t *testing.T) {
	p := New()
	ep := p.Engine(0)
	a := ep.Label("xswitch.trunk.tx")
	b := ep.Label("xswitch.trunk.tx")
	if a != b {
		t.Fatalf("re-interning returned a new ID: %d vs %d", a, b)
	}
	if c := ep.Label("sighost.rel"); c == a {
		t.Fatalf("distinct names shared ID %d", c)
	}
	if ep.Label("engine") != labelEngine {
		t.Fatalf("root label not pre-interned as %d", labelEngine)
	}
	if ep.Label("xshard") != LabelCrossShard {
		t.Fatalf("cross-shard label not pre-interned as %d", LabelCrossShard)
	}
}

func TestProcKind(t *testing.T) {
	cases := map[string]string{
		"A/sighost#3":            "sighost",
		"B.site/sighost-conn#12": "sighost-conn",
		"plain":                  "plain",
		"m/x":                    "x",
		"noslash#7":              "noslash",
	}
	for in, want := range cases {
		if got := procKind(in); got != want {
			t.Errorf("procKind(%q) = %q, want %q", in, got, want)
		}
	}
	p := New().Engine(0)
	// One label per kind, not per pid.
	if p.ProcLabel("A/sighost#1") != p.ProcLabel("A/sighost#2") {
		t.Fatalf("same proc kind interned twice")
	}
}

func TestNilSafety(t *testing.T) {
	var ep *EngineProf
	if ep.Label("x") != labelEngine {
		t.Fatalf("nil EngineProf.Label not root")
	}
	if ep.ProcLabel("m/x#1") != labelEngine {
		t.Fatalf("nil EngineProf.ProcLabel not root")
	}
	ep.Account(3, 10) // must not panic
	var gp *GroupProf
	gp.AccountWindow([]int64{1, 2})
	gp.NoteIdleSkip()
	gp.NotePost(0, 1, 53)
	var p *Profiler
	if p.Engine(0) != nil || p.Group(2) != nil {
		t.Fatalf("nil Profiler returned live profiles")
	}
	s := p.Snapshot()
	if len(s.Shards) != 0 || s.Group != nil {
		t.Fatalf("nil Profiler snapshot not empty")
	}
}

func TestLabelTableBound(t *testing.T) {
	ep := New().Engine(0)
	var last LabelID
	for i := 0; i < maxLabels+10; i++ {
		last = ep.Label(strings.Repeat("l", 1+i%40) + string(rune('a'+i%26)) + itoa(i))
	}
	if last != labelEngine {
		t.Fatalf("overflowing the label table returned %d, want root", last)
	}
	ep.Account(last, 1) // still safe
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
		if i == 0 {
			break
		}
	}
	return string(b[n:])
}

func TestAccountingAndExports(t *testing.T) {
	p := New()
	e0 := p.Engine(0)
	e1 := p.Engine(1)
	lTx := e0.Label("xswitch.trunk.tx")
	lSig := e0.Label("proc.sighost")
	e0.Account(lTx, 100)
	e0.Account(lTx, 50)
	e0.Account(lSig, 300)
	e1.Account(e1.Label("proc.sighost"), 700)

	g := p.Group(2)
	g.AccountWindow([]int64{100, 40}) // shard 1 stalls 60
	g.AccountWindow([]int64{10, 30})  // shard 0 stalls 20
	g.NoteIdleSkip()
	g.NotePost(0, 1, 53)
	g.NotePost(0, 1, 53)
	g.NotePost(1, 0, 0)

	s := p.Snapshot()
	if len(s.Shards) != 2 {
		t.Fatalf("snapshot shards = %d, want 2", len(s.Shards))
	}
	if s.Shards[0].Events != 3 || s.Shards[0].WallNS != 450 {
		t.Fatalf("shard0 totals = %d ev %d ns", s.Shards[0].Events, s.Shards[0].WallNS)
	}
	if s.Group == nil || s.Group.Windows != 2 || s.Group.IdleSkips != 1 {
		t.Fatalf("group snap wrong: %+v", s.Group)
	}
	if s.Group.PerShard[0].ExecNS != 110 || s.Group.PerShard[0].StallNS != 20 {
		t.Fatalf("shard0 window stats: %+v", s.Group.PerShard[0])
	}
	if s.Group.PerShard[1].ExecNS != 70 || s.Group.PerShard[1].StallNS != 60 {
		t.Fatalf("shard1 window stats: %+v", s.Group.PerShard[1])
	}
	if len(s.Group.Matrix) != 2 {
		t.Fatalf("matrix cells = %d, want 2", len(s.Group.Matrix))
	}
	if c := s.Group.Matrix[0]; c.Src != 0 || c.Dst != 1 || c.Posts != 2 || c.Bytes != 106 {
		t.Fatalf("matrix[0] = %+v", c)
	}

	counts := p.CountsText()
	for _, want := range []string{
		"shard 0: events 3",
		"proc.sighost",
		"group: shards 2 windows 2 idle-skips 1",
		"0->1 2 106",
	} {
		if !strings.Contains(counts, want) {
			t.Fatalf("CountsText missing %q:\n%s", want, counts)
		}
	}
	if strings.Contains(counts, "ns") {
		t.Fatalf("deterministic CountsText leaks wall time:\n%s", counts)
	}

	text := p.Text()
	for _, want := range []string{"group: shards 2 windows 2 idle-skips 1", "    1   70ns          60ns\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Text missing %q:\n%s", want, text)
		}
	}

	flame := p.FlameFolded()
	for _, want := range []string{"shard0;proc.sighost 300", "shard0;xswitch.trunk.tx 150"} {
		if !strings.Contains(flame, want) {
			t.Fatalf("flame missing %q:\n%s", want, flame)
		}
	}

	js := p.JSON()
	for _, want := range []string{`"shards"`, `"group"`, `"matrix"`, `"stall_ns"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}
}

// TestCountsTextDeterministicOrder locks the export to sorted label
// order regardless of interning order: the hash TestDetGate holds it to
// depends on it.
func TestCountsTextDeterministicOrder(t *testing.T) {
	a := New()
	ea := a.Engine(0)
	ea.Account(ea.Label("zzz"), 1)
	ea.Account(ea.Label("aaa"), 1)
	b := New()
	eb := b.Engine(0)
	eb.Account(eb.Label("aaa"), 1)
	eb.Account(eb.Label("zzz"), 1)
	if a.CountsText() != b.CountsText() {
		t.Fatalf("interning order leaked into CountsText:\n%s\nvs\n%s", a.CountsText(), b.CountsText())
	}
	if strings.Index(a.CountsText(), "aaa") > strings.Index(a.CountsText(), "zzz") {
		t.Fatalf("labels not sorted:\n%s", a.CountsText())
	}
}
