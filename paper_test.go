// Package xunet's root tests hold this reproduction to the paper's
// evaluation (§9–§10, Tables 1–2, and the design-choice ablations
// DESIGN.md §5 calls out) and run the examples. Every number is virtual
// time or a count under the cost model of DESIGN.md §6, calibrated to
// the paper's 1993 testbed: the claim reproduced is the shape, not the
// absolute figure.
package xunet_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"xunet/internal/codesize"
	"xunet/internal/cost"
	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// A claim is one number of the paper's evaluation: the paper's figure,
// the band that counts as reproduced and why, and how to measure it.
type claim struct {
	id    string // DESIGN.md §4's experiment: T1, T2, E1 … X3
	what  string // what is measured
	paper string // the paper's figure, in its words
	// lo and hi bound the band that counts as reproduced; an infinite
	// bound leaves its side open, and a row open on both is ours alone.
	// unit follows the bounds where the band is rendered.
	lo, hi float64
	unit   string
	why    string
	// measure returns the readings the band must hold for (one per
	// point of a row read at several) and the row's measured cell.
	measure func(*lab) ([]float64, string)
}

var inf = math.Inf(1)

// claims has one row per number of EXPERIMENTS.md's Table 1, Table 2,
// §9, §10 and ablation tables, in the order they render.
var claims = []claim{
	t1("send total", "119 + 8·mbufs", false, cost.Snapshot.Total, 119, true),
	t1("send: PF_XUNET", "0", false, layer(cost.PFXunet), 0, false),
	t1("send: Orc driver", "0", false, layer(cost.OrcDriver), 0, false),
	t1("send: IPPROTO_ATM", "58 + 8·mbufs", false, layer(cost.ProtoATM), 58, true),
	t1("send: IP", "61", false, layer(cost.IP), 61, false),
	t1("receive total", "194 + 8·mbufs", true, cost.Snapshot.Total, 194, true),
	t1("recv: PF_XUNET", "99 + 8·mbufs", true, layer(cost.PFXunet), 99, true),
	t1("recv: Orc driver", "2", true, layer(cost.OrcDriver), 2, false),
	t1("recv: IPPROTO_ATM", "36", true, layer(cost.ProtoATM), 36, false),
	t1("recv: IP", "57", true, layer(cost.IP), 57, false),

	t2("Sighost", "1204", 1000, 2408, "the largest component, within twice the paper's C"),
	t2("daemon (ours)", "—", -inf, inf, "no counterpart in the paper, so no band and not in the total"),
	t2("User lib", "373", 0, 1000, "a few hundred lines, under Sighost"),
	t2("/dev/anand", "382", 0, 1000, "a few hundred lines, under Sighost"),
	t2("PF_XUNET", "463", 0, 1000, "a few hundred lines, under Sighost"),
	t2("IPPROTO_ATM", "164", 0, 1000, "a few hundred lines, under Sighost"),
	t2("Orc", "96", 0, 1000, "a few hundred lines, under Sighost"),
	{id: "T2", what: "total", paper: "2682", lo: 1341, hi: 5364, unit: " lines", why: "within twice the paper's C",
		measure: func(l *lab) ([]float64, string) {
			total := 0
			for _, r := range l.codeSize() {
				if !r.Ours {
					total += r.GoLines
				}
			}
			return []float64{float64(total)}, fmt.Sprint(total)
		}},

	{id: "E1", what: "register a service", paper: "17–20 ms, \"mostly the four context switches\"",
		lo: 17, hi: 20, unit: " vms", why: "the range §9 gives",
		measure: func(l *lab) ([]float64, string) { return vms(l.register()) }},
	{id: "E2", what: "accept an incoming call", paper: "≈20 ms, context-switch bound",
		lo: 15, hi: 25, unit: " vms", why: "≈20 ms, within a quarter",
		measure: func(l *lab) ([]float64, string) { return vms(l.accept()) }},
	{id: "E3", what: "call setup, router to router", paper: "≈330 ms, \"mainly due to the large amount of maintenance information logged per call\"",
		lo: 297, hi: 363, unit: " vms", why: "≈330 ms, within a tenth",
		measure: func(l *lab) ([]float64, string) { return vms(l.setup(true)) }},
	{id: "E3", what: "call setup, logging disabled", paper: "\"ample scope for optimization\"",
		lo: -inf, hi: 110, unit: " vms", why: "logging is most of a setup, so without it a setup takes under a third of 330 ms",
		measure: func(l *lab) ([]float64, string) {
			off := l.setup(false)
			return []float64{off}, fmt.Sprintf("%.1f vms, %.1f× below logging", off, l.setup(true)/off)
		}},
	{id: "E6", what: "encapsulation at the router", paper: "+39 instructions",
		lo: 39, hi: 39, unit: " instructions", why: "the count §9 gives, at every frame size",
		measure: func(l *lab) ([]float64, string) {
			var vals []float64
			for _, r := range l.table1() {
				vals = append(vals, float64(r.router[cost.ProtoATM]))
			}
			return vals, strings.Join(same(format("%.0f", vals...)), ", ")
		}},
	{id: "E6", what: "host–router throughput, PF_XUNET over UDP", paper: "\"comparable to that of UDP\"",
		lo: 0.8, hi: 1.25, why: "comparable: within a quarter either way",
		measure: func(l *lab) ([]float64, string) {
			pf, udp := l.carrier(testbed.CarrierRawIP, 0, 400).mbps, l.udp()
			return []float64{pf / udp}, fmt.Sprintf("%.2f vMb/s vs %.2f vMb/s (%.2f)", pf, udp, pf/udp)
		}},

	{id: "E4", what: "100 calls as fast as possible, 1 s hold, router↔router", paper: "\"run successfully\"; state \"always correctly restored\"",
		lo: 100, hi: 100, unit: " established", why: "every call, with a clean audit",
		measure: func(l *lab) ([]float64, string) {
			return established(l.storm(fixed(), testbed.StormConfig{Count: 100, Hold: time.Second, FramesPerCall: 1}, false))
		}},
	{id: "E4", what: "50 calls host↔router, 1400-byte frames", paper: "\"run successfully\"; state \"always correctly restored\"",
		lo: 50, hi: 50, unit: " established", why: "every call, with a clean audit",
		measure: func(l *lab) ([]float64, string) {
			return established(l.storm(fixed(), testbed.StormConfig{Count: 50, Hold: time.Second, FramesPerCall: 1, FrameBytes: 1400}, true))
		}},
	{id: "E5", what: "8 pseudo-device buffers, 100-call burst", paper: "\"led to problems... some bind indications were lost\"",
		lo: 1, hi: inf, unit: " lost", why: "some indications lost",
		measure: func(l *lab) ([]float64, string) { return lost(l.burst(8, kern.FixedFDTableSize)) }},
	{id: "E5", what: "80 buffers, the same burst", paper: "\"has proved to be adequate\"",
		lo: 0, hi: 0, unit: " lost", why: "none lost",
		measure: func(l *lab) ([]float64, string) { return lost(l.burst(kern.FixedDeviceBuffers, kern.FixedFDTableSize)) }},
	{id: "E5", what: "fd table 20: calls established", paper: "\"restricts the number of clients that can establish a connection... simultaneously\"",
		lo: 1, hi: 99, unit: " of 100", why: "some, not all, establish before the library's timeout",
		measure: func(l *lab) ([]float64, string) {
			return established(l.burst(kern.FixedDeviceBuffers, kern.DefaultFDTableSize))
		}},
	{id: "E5", what: "fd table 20: slowest setup", paper: "TIME_WAIT holds a closed descriptor for 2·MSL",
		lo: 30, hi: inf, unit: " s", why: "a call waited out a 30 s TIME_WAIT window",
		measure: func(l *lab) ([]float64, string) {
			s := l.burst(kern.FixedDeviceBuffers, kern.DefaultFDTableSize).res.MaxSetup.Seconds()
			return []float64{s}, fmt.Sprintf("%.1f s", s)
		}},
	{id: "E5", what: "fd table 100: calls established", paper: "\"with this change\" the burst establishes",
		lo: 100, hi: 100, unit: " of 100", why: "every call",
		measure: func(l *lab) ([]float64, string) {
			return established(l.burst(kern.FixedDeviceBuffers, kern.FixedFDTableSize))
		}},
	{id: "E5", what: "fd table 100: circuits open at once", paper: "\"able to establish and keep open two hundred connections between two routers\"",
		lo: 200, hi: 200, unit: " circuits", why: "all two hundred",
		measure: func(l *lab) ([]float64, string) {
			open := l.heldOpen()
			return []float64{float64(open)}, fmt.Sprint(open)
		}},

	{id: "X1", what: "user-space vs in-kernel signaling, per registration RPC", paper: "user space costs 4 context switches per RPC instead of 2",
		lo: 1.5, hi: 2.5, unit: "×", why: "four switches against two: about twice",
		measure: func(l *lab) ([]float64, string) {
			user, kernel := l.register(), l.inKernelRPC()
			return []float64{user / kernel}, fmt.Sprintf("%.1f vms vs %.1f vms (%.2f×)", user, kernel, user/kernel)
		}},
	{id: "X2", what: "raw IP, UDP and TCP carriers, no loss", paper: "raw IP; the carriers differ under loss",
		lo: 0.95, hi: 1, why: "slowest over fastest: no carrier costs throughput on a clean path",
		measure: func(l *lab) ([]float64, string) {
			var mbps []float64
			for _, c := range []testbed.Carrier{testbed.CarrierRawIP, testbed.CarrierUDP, testbed.CarrierTCP} {
				mbps = append(mbps, l.carrier(c, 0, 300).mbps)
			}
			slow, fast := min(mbps[0], mbps[1], mbps[2]), max(mbps[0], mbps[1], mbps[2])
			return []float64{slow / fast}, strings.Join(format("%.2f", mbps...), ", ") + " vMb/s"
		}},
	{id: "X2", what: "TCP against raw IP, 5 % loss", paper: "\"complex interactions between PF_XUNET flow control and TCP flow control\"",
		lo: -inf, hi: 0.5, why: "TCP's retransmission stalls cost it at least half of raw IP's rate",
		measure: func(l *lab) ([]float64, string) { return againstRawIP(l, testbed.CarrierTCP) }},
	{id: "X2", what: "UDP against raw IP, 5 % loss", paper: "UDP \"buys us little\"",
		lo: 0.95, hi: 1.05, why: "UDP carries what raw IP carries, no faster",
		measure: func(l *lab) ([]float64, string) { return againstRawIP(l, testbed.CarrierUDP) }},
	{id: "X3", what: "8 Mb/s CBR calls admitted on the 45 Mb/s DS3", paper: "per-circuit reservations scheduled at switches",
		lo: 5, hi: 5, unit: " of 10", why: "five fit beside the signaling PVCs; the sixth is refused",
		measure: func(l *lab) ([]float64, string) {
			n := l.admitted()
			return []float64{float64(n)}, fmt.Sprintf("%d of 10", n)
		}},
}

// t1 is a Table 1 row: what read takes from one frame's charges at the
// sending host (at the receiving one if recv), held to fixed, plus 8
// per mbuf if perMbuf is set: the mbufs sent, or those the receiving
// driver built.
func t1(what, paper string, recv bool, read func(cost.Snapshot) int64, fixed float64, perMbuf bool) claim {
	c := claim{id: "T1", what: what, paper: paper, lo: fixed, hi: fixed, why: "Table 1's count at every frame size"}
	if perMbuf {
		c.unit = " + 8·m"
	}
	c.measure = func(l *lab) ([]float64, string) {
		var vals, readings, mbufs []float64
		for _, r := range l.table1() {
			s, m := r.send, r.sentMbufs
			if recv {
				s, m = r.recv, r.recvMbufs
			}
			v := float64(read(s))
			readings, mbufs = append(readings, v), append(mbufs, float64(m))
			if perMbuf {
				v -= float64(8 * m)
			}
			vals = append(vals, v)
		}
		cell := strings.Join(same(format("%.0f", readings...)), ", ")
		if perMbuf {
			cell += " at m = " + strings.Join(same(format("%.0f", mbufs...)), ", ")
		}
		return vals, cell
	}
	return c
}

// layer reads one layer's charges.
func layer(c cost.Component) func(cost.Snapshot) int64 {
	return func(s cost.Snapshot) int64 { return s[c] }
}

// t2 is a Table 2 row: the Go lines of component, against the paper's
// lines of C.
func t2(component, paper string, lo, hi float64, why string) claim {
	return claim{id: "T2", what: component, paper: paper, lo: lo, hi: hi, unit: " lines", why: why,
		measure: func(l *lab) ([]float64, string) {
			for _, r := range l.codeSize() {
				if r.Component == component {
					cell := fmt.Sprintf("%d: `%s`", r.GoLines, strings.Join(r.Sources, "`, `"))
					if len(r.Except) > 0 {
						cell += " less `" + strings.Join(r.Except, "`, `") + "`"
					}
					return []float64{float64(r.GoLines)}, cell
				}
			}
			l.t.Fatalf("Table 2 has no component %q", component)
			return nil, ""
		}}
}

func (l *lab) codeSize() []codesize.Row {
	return run(l, "codesize", func(t *testing.T) []codesize.Row {
		rows, err := codesize.Measure()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	})
}

// fixed is the testbed as §10 left it: 80 pseudo-device buffers and a
// 100-entry descriptor table.
func fixed() testbed.Options {
	return testbed.Options{DeviceBuffers: kern.FixedDeviceBuffers, FDTableSize: kern.FixedFDTableSize}
}

// burst is §10's hundred-call storm, each call held a second, on a
// testbed with the given buffers and descriptor table.
func (l *lab) burst(buffers, fdsize int) stormRun {
	return l.storm(testbed.Options{DeviceBuffers: buffers, FDTableSize: fdsize}, testbed.StormConfig{Count: 100, Hold: time.Second}, false)
}

func vms(v float64) ([]float64, string) { return []float64{v}, fmt.Sprintf("%.1f vms", v) }

func established(s stormRun) ([]float64, string) {
	return []float64{float64(s.res.Succeeded)}, fmt.Sprintf("%d/%d established", s.res.Succeeded, s.res.Launched)
}

func lost(s stormRun) ([]float64, string) {
	return []float64{float64(s.lost)}, fmt.Sprintf("%d lost", s.lost)
}

// againstRawIP is carrier c's throughput under 5 % loss over raw IP's.
func againstRawIP(l *lab, c testbed.Carrier) ([]float64, string) {
	raw, r := l.carrier(testbed.CarrierRawIP, 0.05, 300), l.carrier(c, 0.05, 300)
	return []float64{r.mbps / raw.mbps}, fmt.Sprintf("%.2f vMb/s, %d/300 delivered; raw IP %.2f vMb/s, %d/300 (%.3f)",
		r.mbps, r.delivered, raw.mbps, raw.delivered, r.mbps/raw.mbps)
}

// format prints each value with verb.
func format(verb string, vals ...float64) []string {
	var out []string
	for _, v := range vals {
		out = append(out, fmt.Sprintf(verb, v))
	}
	return out
}

// same shortens xs to its first element when all are equal.
func same(xs []string) []string {
	for _, x := range xs {
		if x != xs[0] {
			return xs
		}
	}
	return xs[:1]
}

// band renders the claim's band.
func (c *claim) band() string {
	switch {
	case math.IsInf(c.lo, -1) && math.IsInf(c.hi, 1):
		return "—"
	case c.lo == c.hi:
		return fmt.Sprintf("= %g%s", c.lo, c.unit)
	case math.IsInf(c.hi, 1):
		return fmt.Sprintf("≥ %g%s", c.lo, c.unit)
	case math.IsInf(c.lo, -1):
		return fmt.Sprintf("≤ %g%s", c.hi, c.unit)
	}
	return fmt.Sprintf("%g–%g%s", c.lo, c.hi, c.unit)
}

// section names the EXPERIMENTS.md block an experiment's rows render
// into.
func section(id string) string {
	switch {
	case id == "T1":
		return "table1"
	case id == "T2":
		return "table2"
	case id == "E4" || id == "E5":
		return "s10"
	case id[0] == 'E':
		return "s9"
	}
	return "ablations"
}

// TestPaperClaims measures every claim, fails on a reading outside its
// band, and fails when a block of EXPERIMENTS.md between
// "<!-- claims NAME -->" and "<!-- /claims -->" is not what the claims
// render: it then names the first row that differs and prints the
// block to paste in. With -v it logs every block that matches.
func TestPaperClaims(t *testing.T) {
	l := &lab{t: t, runs: map[string]any{}}
	blocks := map[string]*strings.Builder{}
	var names []string
	for i := range claims {
		c := &claims[i]
		cell := check(t, l, c)
		name := section(c.id)
		b := blocks[name]
		if b == nil {
			b = new(strings.Builder)
			b.WriteString("| id | claim | paper | measured | reproduced when |\n|---|---|---|---|---|\n")
			blocks[name] = b
			names = append(names, name)
		}
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s: %s |\n", c.id, c.what, c.paper, cell, c.band(), c.why)
	}
	var sweep bytes.Buffer
	if err := testbed.Sweep(&sweep, []int{8, 80}, []int{20, 100}, 100, time.Second); err != nil {
		t.Fatal(err)
	}
	blocks["sweep"] = new(strings.Builder)
	fmt.Fprintf(blocks["sweep"], "```\n%s```\n", sweep.Bytes())
	names = append(names, "sweep")

	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		want := blocks[name].String()
		begin := fmt.Sprintf("<!-- claims %s -->\n", name)
		_, rest, ok := strings.Cut(string(doc), begin)
		have, _, closed := strings.Cut(rest, "<!-- /claims -->")
		switch {
		case !ok || !closed:
			t.Errorf("EXPERIMENTS.md has no %q block closed by %q; regenerated:\n%s", strings.TrimSpace(begin), "<!-- /claims -->", want)
		case have != want:
			t.Errorf("EXPERIMENTS.md's %s block differs from its claims at %s; regenerated:\n%s", name, firstDiff(have, want), want)
		default:
			t.Logf("%s%s<!-- /claims -->", begin, want)
		}
	}
}

// check measures c, fails t on a reading outside its band, and returns
// the row's measured cell.
func check(t *testing.T, l *lab, c *claim) string {
	vals, cell := c.measure(l)
	for _, v := range vals {
		if !(v >= c.lo && v <= c.hi) {
			t.Errorf("%s %s: %s, reading %g outside %s (%s)", c.id, c.what, cell, v, c.band(), c.why)
			break
		}
	}
	return cell
}

// checkSome checks the claims keep selects, and renders nothing.
func checkSome(t *testing.T, keep func(*claim) bool) {
	l := &lab{t: t, runs: map[string]any{}}
	n := 0
	for i := range claims {
		if c := &claims[i]; keep(c) {
			t.Logf("%s %s: %s", c.id, c.what, check(t, l, c))
			n++
		}
	}
	if n == 0 {
		t.Fatal("no claim selected")
	}
}

// TestHeadlineLatencyBands checks §9's headline latencies alone: the
// E1 and E3 rows, registration and call setup.
func TestHeadlineLatencyBands(t *testing.T) {
	checkSome(t, func(c *claim) bool { return c.id == "E1" || c.id == "E3" })
}

// TestTable1_Regenerate checks Table 1 alone: the T1 rows and the
// router's encapsulation count (E6).
func TestTable1_Regenerate(t *testing.T) {
	checkSome(t, func(c *claim) bool { return c.id == "T1" || c.what == "encapsulation at the router" })
}

// firstDiff names the first line of want that have does not match: a
// table row by its id and claim.
func firstDiff(have, want string) string {
	h, w := strings.Split(have, "\n"), strings.Split(want, "\n")
	for i := range w {
		if i < len(h) && h[i] == w[i] {
			continue
		}
		if cells := strings.Split(w[i], " | "); len(cells) > 2 && strings.HasPrefix(w[i], "| ") {
			return fmt.Sprintf("row %s %s", strings.TrimPrefix(cells[0], "| "), cells[1])
		}
		return fmt.Sprintf("line %d", i+1)
	}
	return fmt.Sprintf("line %d, past the end of the rendered block", len(w)+1)
}
