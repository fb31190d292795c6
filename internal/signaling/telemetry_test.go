package signaling_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/obs"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// TestStatsQueryMidStorm exercises the MGMT_STATS surface while the
// signaling entity is busy: an in-sim operator process scrapes stats.json
// twice during a staggered call storm. The scrape itself runs through the
// ordinary RPC path, so it is serialized with call handling — the
// snapshots must be internally consistent, and every counter must be
// monotone between them.
func TestStatsQueryMidStorm(t *testing.T) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{
		DeviceBuffers: kern.FixedDeviceBuffers,
		FDTableSize:   kern.FixedFDTableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	testbed.StartEchoServer(rb, "echo", 6000)
	n.E.RunUntil(time.Second)

	res := testbed.CallStorm(ra, "ucb.rt", "echo", testbed.StormConfig{
		Count: 30, Hold: 200 * time.Millisecond, Stagger: 20 * time.Millisecond,
	})

	scrape := func(p *kern.Proc, into *obs.Snapshot) {
		body, err := ra.Lib.Client(p).Query(signaling.MgmtStatsJSON, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := json.Unmarshal([]byte(body), into); err != nil {
			t.Errorf("bad stats.json: %v", err)
		}
	}
	var mid, late obs.Snapshot
	ra.Stack.Spawn("operator", func(p *kern.Proc) {
		p.SP.Sleep(1*time.Second + 150*time.Millisecond) // some calls up, more launching
		scrape(p, &mid)
		p.SP.Sleep(400 * time.Millisecond) // deeper into the storm
		scrape(p, &late)
	})
	n.E.RunUntil(time.Minute)
	if res.Succeeded != 30 {
		t.Fatalf("storm: %d/30 calls succeeded", res.Succeeded)
	}
	if len(mid.Counters) == 0 || len(late.Counters) == 0 {
		t.Fatal("empty snapshots")
	}

	// Counter monotonicity across the two mid-storm scrapes. Func-backed
	// occupancy metrics (list sizes, live cookies) report instantaneous
	// state and legitimately shrink as calls drain; everything else must
	// only grow.
	for _, c := range mid.Counters {
		if strings.HasPrefix(c.Name, "sighost.list.") || c.Name == "sighost.cookies" ||
			c.Name == "sighost.calls.active" {
			continue
		}
		after, ok := late.Value(c.Name)
		if !ok {
			t.Errorf("counter %s vanished between scrapes", c.Name)
			continue
		}
		if after < c.Value {
			t.Errorf("counter %s went backwards: %d -> %d", c.Name, c.Value, after)
		}
	}
	// The storm must be visible in the mid-storm scrape: some calls
	// established, and setup latency observations match the established
	// count (every established call contributes exactly one total-setup
	// observation).
	if est := mid.Count("sighost.calls.established"); est == 0 {
		t.Error("mid-storm scrape saw no established calls")
	}
	for _, snap := range []*obs.Snapshot{&mid, &late} {
		for _, h := range snap.Hists {
			var sum uint64
			for _, b := range h.Buckets {
				sum += b.N
			}
			if sum != h.Count {
				t.Errorf("histogram %s: bucket sum %d != count %d", h.Name, sum, h.Count)
			}
		}
	}
	if st := late.Hist("sighost.setup.total"); st == nil || st.Count != late.Count("sighost.calls.established") {
		t.Errorf("setup.total observations do not match established count: %+v", st)
	}

	// Final registry state after the storm drains.
	final := ra.Sig.SH.Obs.Snapshot()
	if got := final.Count("sighost.calls.established"); got != 30 {
		t.Errorf("final established = %d", got)
	}
	if got := final.Count("sighost.calls.torn"); got != 30 {
		t.Errorf("final torn = %d", got)
	}
	if st := final.Hist("sighost.setup.total"); st == nil || st.Count != 30 || st.P99 > st.Max {
		t.Errorf("final setup.total = %+v", st)
	}
	n.E.Shutdown()
}

// TestTypedEventsCarryIDs turns the sighost tracer on in-sim and checks
// the typed fields (VCI, call ID, component) that the legacy string trace
// never carried.
func TestTypedEventsCarryIDs(t *testing.T) {
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra.Sig.SH.EnableTrace(true)
	testbed.StartEchoServer(rb, "echo", 6000)
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		conn, err := ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		sock, _ := ra.Stack.PF.Socket(p)
		_ = sock.Connect(conn.VCI, conn.Cookie)
		p.SP.Sleep(100 * time.Millisecond)
		sock.Close()
	})
	n.E.RunUntil(time.Minute)

	evs := ra.Sig.SH.Events(signaling.MgmtTraceDefault)
	if len(evs) == 0 {
		t.Fatal("no events in ring")
	}
	var sawBind, sawTeardown bool
	for _, ev := range evs {
		if ev.Comp != "sighost" {
			t.Errorf("event from unexpected component %q", ev.Comp)
		}
		if ev.Text == "" {
			t.Errorf("event %s has no rendered text", ev.Kind)
		}
		switch ev.Kind {
		case signaling.EvBindOK:
			sawBind = true
			if ev.VCI == 0 {
				t.Error("bind.ok event carries no VCI")
			}
		case signaling.EvTeardown:
			sawTeardown = true
			if ev.CallID == 0 {
				t.Error("teardown event carries no call ID")
			}
		}
	}
	if !sawBind || !sawTeardown {
		t.Errorf("trace missing lifecycle events: bind=%v teardown=%v (%d events)", sawBind, sawTeardown, len(evs))
	}
	n.E.Shutdown()
}
