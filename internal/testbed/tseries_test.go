package testbed_test

import (
	"io"
	"strings"
	"testing"

	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// Continuous telemetry over the E4 storm: the trunks must show real
// queue buildup, the watermark rules must fire on it and the MGMT hooks
// must answer. TestDetGate's obs row holds the export to its history.

// stormWithTSeries runs the telemetry scenario at its E4 defaults and
// returns the deployment.
func stormWithTSeries(t *testing.T) *testbed.Net {
	t.Helper()
	n, err := testbed.ObsStorm(io.Discard, testbed.E4Obs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if est := n.Snapshot().Routers[0].Established; est == 0 {
		t.Fatal("storm made no calls")
	}
	return n
}

func TestTSeriesStormQueueBuildupAndRules(t *testing.T) {
	n := stormWithTSeries(t)
	ra := n.Routers[0]
	ex := n.TS.Export()
	if ex.Ticks == 0 {
		t.Fatal("no scrape ticks ran")
	}

	// Padded 1400-byte frames burst ~30 cells at host-interface rate into
	// the DS3 trunk, so some trunk's between-tick queue high-water must
	// clear the congestion watermark.
	var peak int64
	for _, s := range ex.Series {
		if !strings.HasPrefix(s.Name, "fabric.trunk.") || !strings.HasSuffix(s.Name, ".qdepth") {
			continue
		}
		for _, p := range s.Points {
			if p.Aux > peak {
				peak = p.Aux
			}
		}
	}
	if peak < testbed.QueueWatermarkCells {
		t.Fatalf("trunk queue high-water %d never reached watermark %d", peak, testbed.QueueWatermarkCells)
	}

	// ...and the trunk-queue-buildup rule must have seen it fire.
	fires := 0
	for _, ev := range n.HealthEvents {
		if ev.Rule == "trunk-queue-buildup" && ev.State == "fire" {
			fires++
		}
	}
	if fires == 0 {
		t.Fatalf("no trunk-queue-buildup fire among %d health events", len(n.HealthEvents))
	}

	// MGMT surface: the router's sighost answers tseries/health with live
	// content, not the disabled fallback.
	if txt := ra.Sig.SH.View(signaling.MgmtTSeries); !strings.Contains(txt, "fabric.trunk.") {
		t.Errorf("tseries text missing trunk series:\n%.300s", txt)
	}
	if h := ra.Sig.SH.View(signaling.MgmtHealth); !strings.Contains(h, "trunk-queue-buildup") {
		t.Errorf("health text missing rule state:\n%.300s", h)
	}
}
