package testbed

import (
	"strings"
	"testing"
	"time"

	"xunet/internal/obs/tseries"
)

// TestObservationCannotChangeHistory: the fabric takes cells in lazily,
// whenever something looks, and every reader settles it first — so who
// looks when must not change a thing. The chaos soak runs bare, then
// with a time-series ticker every millisecond over every trunk and
// registry and, every 10 ms, the reads a MGMT stats query makes on both
// routers. Transcripts and fault counters must match byte for byte:
// faults included, since each trunk draws its cells' fates from its own
// stream.
func TestObservationCannotChangeHistory(t *testing.T) {
	run := func(observe func(*Net)) (string, string) {
		var out strings.Builder
		n, _, _, err := chaosSoak(&out, 7, 99, observe)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		return out.String(), n.Faults.Obs.Snapshot().Text()
	}
	var ticks, reads int
	bare, bareFaults := run(nil)
	watched, watchedFaults := run(func(n *Net) {
		st := tseries.New(tseries.Config{Interval: time.Millisecond, Capacity: 16})
		n.Fabric.RegisterTSeries(st, n.E)
		st.TrackRegistry("", n.Fabric.Obs)
		for _, r := range n.Routers {
			st.TrackRegistry(string(r.Stack.Addr)+".", r.Stack.M.Obs)
		}
		var tick, read func()
		tick = func() {
			st.Tick(n.E.Now())
			ticks++
			n.E.Schedule(time.Millisecond, tick)
		}
		read = func() {
			for _, r := range n.Routers {
				_ = r.Stack.M.Obs.Snapshot().Text()
			}
			reads++
			if n.E.Now() < 70*time.Second {
				n.E.Schedule(10*time.Millisecond, read)
			}
		}
		n.E.Schedule(time.Millisecond, tick)
		n.E.Schedule(10*time.Millisecond, read)
	})
	if ticks < 60_000 || reads < 6_000 {
		t.Fatalf("observers ran %d ticks and %d reads", ticks, reads)
	}
	if bareFaults != watchedFaults {
		t.Fatalf("fault counters moved under observation:\n%s\nvs\n%s", bareFaults, watchedFaults)
	}
	if bare != watched {
		b, w := strings.Split(bare, "\n"), strings.Split(watched, "\n")
		for i := range b {
			if i >= len(w) || b[i] != w[i] {
				t.Fatalf("transcript line %d moved under observation:\n bare:     %s\n observed: %s", i+1, b[i], w[min(i, len(w)-1)])
			}
		}
		t.Fatal("transcript moved under observation")
	}
}
