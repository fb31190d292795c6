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
// 90–109 on either side. Five moved when sighost and the anand server
// became delivery hooks with no helper processes: obs and its -shards 4
// twin in the engines' sim.events.executed, sim.heap.hiwat and sim.pool.*
// series, the new sim.procs.dispatched series, kern.procs.live and
// kern.procs.spawned (each router's PVC processes gave way to its one
// sighost process) and ucb.rt's kern.dev.depth, one lower at the samples
// taken in the instant the actor finished an indication (it re-arms its
// device read at once, where the old reader took the next buffered one a
// zero-delay event later; the high-water mark and every loss count are
// unchanged); obs -prof and its twin also in the profile's event totals
// and per-process counts, the helpers' rows gone and their events now
// under the processes whose sends they delivered; chaos because
// same-instant order moved with the hops removed, so the fault plane's
// one stream serves its draws in a different order (faults.pkt.delay
// 13 → 14, drop 6 → 5, trunk flaps 9 → 10, so 14 more cells switched
// and 2 more dropped); the storms read the same 28/40 and 11/15, and of
// the recovery counts only mh.rt's rel.retransmits (59 → 61) and acks
// (166 → 168) and ucb.rt's dropped_while_down (21 → 20) and rel.dups
// (37 → 38) moved.
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
	}, "1177d972a46d50f2e3d09ba6ef6bcddb2691f06126724371a52244b95d5fd311"},
	{"sweep", func(w io.Writer, _ int) error {
		return testbed.Sweep(w, []int{8, 20, 40, 80}, []int{20, 100}, 100, time.Second, 1)
	}, "5226bd9d6307ef6dc3c34945a59a3b82a7530dec42d73da9f96576dbeef4f1a6"},
	{"obs", obsRow(func(*testbed.ObsConfig) {}),
		"4affda11ba69c5fdbb881d6cd3df51ea18c5ce7a1170df02a7c603ff599f1c05"},
	{"obs -health", obsRow(func(c *testbed.ObsConfig) { c.Health = true }),
		"cc46d105f1e9d003147679b73181698342d31d9cb4147717b9df77988c068a16"},
	{"obs -table", obsRow(func(c *testbed.ObsConfig) { c.Table = true }),
		"3b74cbef8a775d3d2da6b488dc9748d4ce7e1afe9a6eed2ace3dff00408b13a5"},
	{"obs -prof", obsRow(func(c *testbed.ObsConfig) { c.Prof = true }),
		"4b0aae650b45a5be8088a765a1a7f9cecdf43d5e11ba3a2c5c0bf77631419942"},
	{"obs -shards 4 -calls 24 -frames 2 -run 8s", obsRow(shards4),
		"8c125ca330c355ccca7105e92ff7435a36aac55b0cb53e4be12be40b5ab7375c"},
	{"obs -prof -shards 4 -calls 24 -frames 2 -run 8s", obsRow(func(c *testbed.ObsConfig) { shards4(c); c.Prof = true }),
		"a82c0200a21d646da00a73703ba6d39bf18ec121ec9aecea15b6df2bd5fb5f75"},
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
