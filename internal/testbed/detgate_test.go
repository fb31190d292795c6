package testbed_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"xunet/internal/obs/tseries"
	"xunet/internal/testbed"
)

// detGate is the fixed history every scenario is checked against: one
// row per `xunetsim` command line, whose output is held to
// testdata/<row>.golden, named by goldenName.
var detGate = []struct {
	cmd string
	// run writes the scenario's artifact; only a sharded row has a use
	// for workers.
	run func(w io.Writer, workers int) error
	// golden renders the artifact as the golden stores it; nil stores it
	// as printed.
	golden func([]byte) ([]byte, error)
	// sha256 pins an artifact too large to commit, whose golden is then
	// its summary. -update does not re-record it.
	sha256 string
}{
	{cmd: "trace", run: func(w io.Writer, _ int) error { return closing(testbed.TraceStorm(w, 42, 30, false)) },
		golden: func(b []byte) ([]byte, error) { return oneRecordPerLine(b), nil }},
	{cmd: "trace -text", run: func(w io.Writer, _ int) error { return closing(testbed.TraceStorm(w, 42, 30, true)) }},
	{cmd: "chaos", run: func(w io.Writer, _ int) error {
		n, _, _, err := testbed.ChaosSoak(w, 7, 99)
		return closing(n, err)
	}},
	{cmd: "sweep", run: func(w io.Writer, _ int) error {
		return testbed.Sweep(w, []int{8, 20, 40, 80}, []int{20, 100}, 100, time.Second)
	}},
	{cmd: "obs", run: obsRow(func(*testbed.ObsConfig) {}), golden: seriesSummary,
		sha256: "7f8555649afeb678de215eb87b9cb0fffb5d1de309895338a54955e562a1d561"},
	{cmd: "obs -health", run: obsRow(func(c *testbed.ObsConfig) { c.Health = true })},
	{cmd: "obs -table", run: obsRow(func(c *testbed.ObsConfig) { c.Table = true })},
	{cmd: "obs -prof", run: obsRow(func(c *testbed.ObsConfig) { c.Prof = true })},
	{cmd: "obs -shards 4 -calls 24 -frames 2 -run 8s", run: obsRow(shards4), golden: seriesSummary,
		sha256: "fe5747c1945db6fcb894083c68e1bc6e5fcecc462a230584ba1b42c33e58e477"},
	{cmd: "obs -prof -shards 4 -calls 24 -frames 2 -run 8s", run: obsRow(func(c *testbed.ObsConfig) { shards4(c); c.Prof = true })},
}

// goldens names every testdata/*.golden a test of this package reads.
var goldens = func() []string {
	names := []string{"callstorm"}
	for _, row := range detGate {
		names = append(names, goldenName(row.cmd, row.sha256))
	}
	return names
}()

// goldenName is a row's file name: its command line without spaces
// ("obs -shards 4" is obs-shards4), plus -summary for a hashed row.
func goldenName(cmd, sha string) string {
	name := strings.NewReplacer(" -", "-", " ", "").Replace(cmd)
	if sha != "" {
		name += "-summary"
	}
	return name
}

func closing(n *testbed.Net, err error) error {
	if err == nil {
		n.Close()
	}
	return err
}

func obsRow(set func(*testbed.ObsConfig)) func(io.Writer, int) error {
	return func(w io.Writer, workers int) error {
		c := testbed.E4Obs()
		set(&c)
		c.Workers = workers
		return closing(testbed.ObsStorm(w, c))
	}
}

func shards4(c *testbed.ObsConfig) {
	c.Storm.Domains, c.Storm.Count, c.Storm.FramesPerCall, c.Run = 4, 24, 2, 8*time.Second
}

// seriesSummary renders a time-series export as one line per series:
// name, kind, samples, and the first, last, minimum, maximum and summed
// value — the sum, a counter's total over the run, moves when one
// sample in the middle does.
func seriesSummary(b []byte) ([]byte, error) {
	var ex tseries.Export
	if err := json.Unmarshal(b, &ex); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "interval %v, %d ticks, %d series\n", ex.Interval, ex.Ticks, len(ex.Series))
	fmt.Fprintf(&out, "%-48s %-8s %7s %12s %12s %12s %12s %14s\n", "series", "kind", "samples", "first", "last", "min", "max", "sum")
	for _, s := range ex.Series {
		var first, last, lo, hi, sum int64
		for i, p := range s.Points {
			if i == 0 {
				first, lo, hi = p.V, p.V, p.V
			}
			last, lo, hi, sum = p.V, min(lo, p.V), max(hi, p.V), sum+p.V
		}
		fmt.Fprintf(&out, "%-48s %-8s %7d %12d %12d %12d %12d %14d\n", s.Name, s.Kind, len(s.Points), first, last, lo, hi, sum)
	}
	return out.Bytes(), nil
}

// TestDetGate is the one determinism gate: each scenario runs twice in
// this process — at workers 1 and 4, which a flat row ignores — both
// runs must print the same bytes, and those must be the row's golden
// (and, for a hashed row, hash to its SHA-256), so the scenarios are
// checked against a fixed history and not only against themselves. Rows
// run in parallel, which also shows that concurrent deployments share
// nothing.
func TestDetGate(t *testing.T) {
	for _, row := range detGate {
		t.Run(row.cmd, func(t *testing.T) {
			t.Parallel()
			var out [2]bytes.Buffer
			var got [2][]byte
			for i, workers := range []int{1, 4} {
				if err := row.run(&out[i], workers); err != nil {
					t.Fatal(err)
				}
				got[i] = out[i].Bytes()
				if row.golden != nil {
					var err error
					if got[i], err = row.golden(got[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := diffLines("workers 1", got[0], "workers 4", got[1]); err != nil {
				t.Errorf("xunetsim %s: %v", row.cmd, err)
			} else if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
				t.Errorf("xunetsim %s: workers 1 and 4 print different bytes with the same summary", row.cmd)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(out[0].Bytes())); row.sha256 != "" && sum != row.sha256 {
				t.Errorf("xunetsim %s printed sha256 %s, recorded %s", row.cmd, sum, row.sha256)
			}
			checkGolden(t, goldenName(row.cmd, row.sha256), got[0])
		})
	}
}
