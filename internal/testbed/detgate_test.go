package testbed_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"
	"time"

	"xunet/internal/testbed"
)

// detGate is the fixed history every scenario is checked against: one
// row per command line, with the SHA-256 of what that command printed
// (go1.24.0 linux/amd64) on the commit before the scenarios moved into
// this package — then tracegen, chaosgen, callgen and obsgen, now
// `xunetsim trace|chaos|sweep|obs` with the same flags. A row that
// moves is a change to the virtual history: explain it, then re-record.
// The obs rows that export event counts (obs, obs -prof and their
// -shards 4 twins) were re-recorded when cells stopped scheduling an
// event per interior hop: only the engines' own event, pool and heap
// series and the profile's event totals and xswitch.arrival line (was
// xswitch.trunk.deliver) moved. The same four were re-recorded when a
// loopback stream ACK that nothing waits on stopped being an event:
// only the engines' sim.events.executed, sim.heap.hiwat and sim.pool.*
// series and the profile's event totals and per-process event counts
// moved. chaos was re-recorded when each trunk began drawing its cells'
// fates from its own stream (CHANGES.md). Five moved when sighost began
// closing its side of an application connection at EOF, a FIN and an
// ACK more per close: obs, obs -prof and their -shards 4 twins in the
// engines' sim.events.executed and sim.pool.hits series and the
// profile's event totals and proc.sighost-conn counts only; chaos
// because the host storm's closes cross mh.h1's faulted link, where each
// packet draws from the fault plane's one stream, so every later draw
// shifted (faults.pkt.drop 3 → 6, dup 1 → 0) and fewer calls were
// mid-setup at the crashes: the router storm reads 28/40 (17), ucb.rt's
// recovery.aborted_calls 18 (30). 28/40 is the median of chaos seeds
// 90–109 on either side.
var detGate = []struct {
	cmd string
	// run writes the scenario's artifact; only a sharded row has a use
	// for workers.
	run    func(w io.Writer, workers int) error
	sha256 string
}{
	{"trace", func(w io.Writer, _ int) error { return closing(testbed.TraceStorm(w, 42, 30, false)) },
		"451cf6dc320d5c766ef0dee4809d7d4c7e7507b13209dad2e2276f3842837a2a"},
	{"trace -text", func(w io.Writer, _ int) error { return closing(testbed.TraceStorm(w, 42, 30, true)) },
		"2d8d42f37a8dbd29e844fee32b619039f4a28352e9f7d251f19523411271c713"},
	{"chaos", func(w io.Writer, _ int) error {
		n, _, _, err := testbed.ChaosSoak(w, 7, 99)
		return closing(n, err)
	}, "c69e6a8438679b1ba2058f43f6a56974ac30c3a546bc3ca9818708558a701694"},
	{"sweep", func(w io.Writer, _ int) error {
		return testbed.Sweep(w, []int{8, 20, 40, 80}, []int{20, 100}, 100, time.Second, 1)
	}, "5226bd9d6307ef6dc3c34945a59a3b82a7530dec42d73da9f96576dbeef4f1a6"},
	{"obs", obsRow(func(*testbed.ObsConfig) {}),
		"b9298e0d900056636aa53f70ab0aaaf0addf80f0193d0c85dfb4723b2c02ff27"},
	{"obs -health", obsRow(func(c *testbed.ObsConfig) { c.Health = true }),
		"cc46d105f1e9d003147679b73181698342d31d9cb4147717b9df77988c068a16"},
	{"obs -table", obsRow(func(c *testbed.ObsConfig) { c.Table = true }),
		"3b74cbef8a775d3d2da6b488dc9748d4ce7e1afe9a6eed2ace3dff00408b13a5"},
	{"obs -prof", obsRow(func(c *testbed.ObsConfig) { c.Prof = true }),
		"2ef00ae6062c0d0f4cebe7a872b0f6a0c7463e165190e3e3a0d31ffd871e7bf3"},
	{"obs -shards 4 -calls 24 -frames 2 -run 8s", obsRow(shards4),
		"9e1b2337397f0a7eacf24d667e35b703362f41a25310672a240cc79e6c2781ef"},
	{"obs -prof -shards 4 -calls 24 -frames 2 -run 8s", obsRow(func(c *testbed.ObsConfig) { shards4(c); c.Prof = true }),
		"2cf5d9fe40bd86c0dda81415c166d2a71d83c1ee60ec56e6f4ff4d2e5db5345c"},
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

// TestDetGate is the one determinism gate: each scenario runs twice in
// this process — at workers 1 and 4, which a flat row ignores — and
// both runs must hash to the row's recorded SHA-256, so the scenarios
// are checked against a fixed history and not only against themselves.
// Rows run in parallel, which also shows that concurrent deployments
// share nothing.
func TestDetGate(t *testing.T) {
	for _, row := range detGate {
		t.Run(row.cmd, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				h := sha256.New()
				if err := row.run(h, workers); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != row.sha256 {
					t.Errorf("xunetsim %s (workers %d) printed sha256 %s, recorded %s", row.cmd, workers, got, row.sha256)
				}
			}
		})
	}
}
