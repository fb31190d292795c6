package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSON holds the committed BENCHMARK.json to the tables in
// this package: the workload and metric names the benchmark prints are
// exactly the ones the file declares.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(doc.RunSeconds); !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in bench/metrics.go and bench/main.go; want:\n%s", want)
	}
}

// TestSmoke runs every workload traced (which also runs its untraced
// twin) at one segment of 1/50 scale and checks that no operation
// fails, that chaos terminates every call, and that the metrics printed
// are the declared ones, each by at least one workload.
func TestSmoke(t *testing.T) {
	seen := map[string]bool{}
	skippedReal := false
	for _, def := range workloads {
		cfg := runConfig{seed: 1, scale: 0.02, traced: true, spans: newRecorder()}
		r, err := run(def, cfg, stopRule{segments: 1})
		if errors.Is(err, errNoLoopback) {
			t.Logf("%s skipped: %v", def.name, err)
			skippedReal = true
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Ops == 0 {
			t.Errorf("%s: ops=%d failed=%d correct=%v notes=%v", def.name, r.Ops, r.Failed, r.Correct, r.Notes)
		}
		if hung := r.Layers["storm.hung_calls"]; hung != 0 {
			t.Errorf("%s: %v calls hung", def.name, hung)
		}
		for _, d := range endToEnd {
			if v, ok := r.EndToEnd[d.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a non-zero value", def.name, d.Name, v)
			}
		}
		if len(r.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: prints end-to-end metrics %v, want exactly the declared %d", def.name, sortedNames(r.EndToEnd), len(endToEnd))
		}
		for name := range r.Layers {
			if _, ok := defOf(perLayer, name); !ok && !strings.HasPrefix(name, "span_share_pct.") {
				t.Errorf("%s: prints undeclared per-layer metric %s", def.name, name)
			}
			seen[name] = true
		}
	}
	if t.Failed() || len(seen) == 0 {
		return
	}
	for _, d := range perLayer {
		if !seen[d.Name] && !(skippedReal && realOnly(d.Name)) {
			t.Errorf("per-layer metric %s is declared but no workload prints it", d.Name)
		}
	}
}

// realOnly reports whether a metric comes only from the real_*
// workloads, which the smoke test may have had to skip.
func realOnly(name string) bool {
	for _, p := range []string{"rtnet.", "rtenv.", "rtclient.", "floor."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
