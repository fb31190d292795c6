package signaling_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xunet/internal/obs/tseries"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
)

// Wall-clock telemetry on the real daemon: the scrape must adopt the
// Go runtime metrics, the MGMT queries must serve live content, and the
// OpenMetrics endpoint must render the registry in exposition format —
// all while real calls run through the actor the scrape ticks on.
func TestRealTSeriesScrape(t *testing.T) {
	h := startReal(t)
	h.EnableTSeries(tseries.Config{Interval: 5 * time.Millisecond})
	query := func(view string) string {
		t.Helper()
		reply, err := realQuery(t, h.ListenAddr(), view)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Kind != sigmsg.KindMgmtReply {
			t.Fatalf("%s reply kind %v: %q", view, reply.Kind, reply.Reason)
		}
		return reply.Comment
	}

	// Local calls, one after another, on a goroutine of their own.
	const calls = 20
	c := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	defer c.Close()
	srvL, srvPort := listenTCP(t)
	if err := c.ExportService("echo", srvPort); err != nil {
		t.Fatal(err)
	}
	grants := acceptAll(srvL)
	cliL, cliPort := listenTCP(t)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < calls; i++ {
			conn, err := c.OpenConnection("mh.rt", "echo", cliL, cliPort, "", "")
			if err != nil {
				done <- err
				return
			}
			if g := <-grants; g.err != nil {
				done <- g.err
				return
			}
			hangUpCall(h, conn.VCI)
		}
		done <- nil
	}()

	// Every view, over and over, until the calls are done.
	var body, om string
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		body = query(signaling.MgmtTSeries)
		query(signaling.MgmtHealth)
		om = h.OpenMetrics()
	}

	// Wait for a few scrape ticks to land (wall clock; poll, don't sleep
	// a fixed amount — loaded CI machines stall tickers): the store has
	// adopted the runtime metrics and counted every call end.
	const want = "sighost.calls.established rate="
	total := fmt.Sprintf(" total=%d ", count("sighost.calls.established", h))
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		body = query(signaling.MgmtTSeries)
		if strings.Contains(body, "go.goroutines") && scraped(body, want, total) {
			break
		}
	}
	if !strings.Contains(body, "go.goroutines") || !strings.Contains(body, "go.heap_inuse_bytes") {
		t.Fatalf("scrape never adopted runtime metrics:\n%.400s", body)
	}
	if !scraped(body, want, total) {
		t.Fatalf("scrape never counted the %d calls' ends (%s):\n%.400s", calls, total, body)
	}

	for _, want := range []string{"# TYPE go_goroutines gauge", "go_goroutines ", "# EOF"} {
		if !strings.Contains(om, want) {
			t.Errorf("OpenMetrics missing %q:\n%.400s", want, om)
		}
	}
	if !strings.HasSuffix(strings.TrimRight(om, "\n"), "# EOF") {
		t.Error("OpenMetrics must end with # EOF")
	}
}

// scraped reports whether the tseries text has a line that starts with
// prefix and holds total.
func scraped(body, prefix, total string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) && strings.Contains(line, total) {
			return true
		}
	}
	return false
}
