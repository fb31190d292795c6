package main

import (
	"testing"

	"xunet/internal/signaling"
)

// TestViewName holds each subcommand to the MGMT query it names, with
// -json and -flame before the subcommand or among its arguments.
func TestViewName(t *testing.T) {
	for _, row := range []struct {
		args   []string
		asJSON bool // -json before the subcommand
		what   string
		callID uint32
	}{
		{[]string{"faults"}, false, signaling.MgmtFaults, 0},
		{[]string{"faults"}, true, signaling.MgmtFaultsJSON, 0},
		{[]string{"faults", "-json"}, false, signaling.MgmtFaultsJSON, 0},
		{[]string{"flight", "--json"}, false, signaling.MgmtFlightJSON, 0},
		{[]string{"tseries"}, true, signaling.MgmtTSeriesJSON, 0},
		{[]string{"health", "-json"}, false, signaling.MgmtHealthJSON, 0},
		{[]string{"prof"}, false, signaling.MgmtProf, 0},
		{[]string{"prof", "-json"}, false, signaling.MgmtProfJSON, 0},
		{[]string{"prof", "-flame"}, true, signaling.MgmtProfFlame, 0},
		{[]string{"trace", "7"}, false, signaling.MgmtCallTrace, 7},
		{[]string{"trace", "-json", "7"}, false, signaling.MgmtCallTraceJSON, 7},
		{[]string{"trace", "7"}, true, signaling.MgmtCallTraceJSON, 7},
	} {
		what, callID, err := viewName(row.args, row.asJSON)
		if err != nil || what != row.what || callID != row.callID {
			t.Errorf("viewName(%q, json=%v) = %q, %d, %v; want %q, %d", row.args, row.asJSON, what, callID, err, row.what, row.callID)
		}
	}
	for _, args := range [][]string{{}, {"-json"}, {"trace"}, {"trace", "x"}, {"trace", "4294967296"}, {"bogus"}} {
		if what, _, err := viewName(args, false); err == nil {
			t.Errorf("viewName(%q) = %q, want an error", args, what)
		}
	}
}
