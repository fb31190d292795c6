package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// report is what the suite writes to -out.
type report struct {
	Stamp    stamp     `json:"machine"`
	Seed     uint64    `json:"seed"`
	Untraced []*result `json:"untraced"`
	Traced   []*result `json:"traced"`
}

// child re-executes this binary for one workload, so heap, goroutines,
// sockets and VmHWM never leak from one workload into the next. It
// passes the child's printed metrics through and returns its result.
func child(name string, seed uint64, traced bool, stop stopRule, out string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(seed),
		"-segments", fmt.Sprint(stop.segments), "-seconds", fmt.Sprint(stop.seconds),
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var r *result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "RESULT "):
			r = new(result)
			if err := json.Unmarshal([]byte(line[len("RESULT "):]), r); err != nil {
				return nil, fmt.Errorf("%s: bad result line: %w", name, err)
			}
		case strings.HasPrefix(line, "{"):
			// the contract's line, for the driver
		default:
			fmt.Println(line)
		}
	}
	if r == nil {
		return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	return r, nil
}

// runSuite runs every workload untraced, then traced, prints every
// metric by name and the checks on the written-down predictions, and
// writes the JSON report.
func runSuite(seed uint64, stop stopRule, out string) int {
	rep := report{Stamp: machineStamp(), Seed: seed}
	fmt.Printf("machine: %+v\n", rep.Stamp)
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			r, err := child(w.name, seed, traced, stop, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			ok = ok && r.Correct
			if traced {
				rep.Traced = append(rep.Traced, r)
			} else {
				rep.Untraced = append(rep.Untraced, r)
			}
		}
	}
	ok = printPredictions(&rep) && ok
	if out != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Println("FAIL: a workload was incorrect or a prediction did not hold")
		return 1
	}
	return 0
}

// find returns the named workload's result, or an empty one.
func find(rs []*result, name string) *result {
	for _, r := range rs {
		if r.Workload == name {
			return r
		}
	}
	return &result{Layers: map[string]float64{}, EndToEnd: map[string]float64{}}
}

// printPredictions checks the bypass predictions README writes down
// against this run's own numbers.
func printPredictions(rep *report) bool {
	flat := find(rep.Untraced, "sim_storm_flat").Layers
	bulk := find(rep.Untraced, "sim_data_bulk").Layers
	small := find(rep.Untraced, "sim_data_small").Layers
	tflat := find(rep.Traced, "sim_storm_flat").Layers
	tsetup := find(rep.Traced, "real_setup").Layers
	ok := true
	check := func(what string, pass bool, detail string) {
		verdict := "ok  "
		if !pass {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("prediction %s %s (%s)\n", verdict, what, detail)
	}
	fmt.Println("== predictions")
	for _, d := range []struct {
		name string
		l    map[string]float64
	}{{"sim_data_bulk", bulk}, {"sim_data_small", small}} {
		for _, m := range []string{"sighost.msgs_app_per_call", "sighost.msgs_kernel_per_call", "sighost.msgs_peer_per_call"} {
			check(fmt.Sprintf("%s on %s < 1%% of sim_storm_flat", m, d.name), d.l[m] < 0.01*flat[m],
				fmt.Sprintf("%.6f vs %.4f", d.l[m], flat[m]))
		}
	}
	check("sim.shard.windows_per_op is 0 on sim_storm_flat", tflat["sim.shard.windows_per_op"] == 0,
		fmt.Sprintf("%.4f", tflat["sim.shard.windows_per_op"]))
	// Signaling messages ride PVCs through the same switches, so the
	// flat storm is not cell-free; what must hold is that it moves far
	// fewer cells per second of simulator time than the bulk stream.
	cellsPerEvent := func(l map[string]float64) float64 { return l["xswitch.cells_per_op"] / l["sim.events_per_op"] }
	check("cells per engine event on sim_storm_flat < 1/3 of sim_data_bulk", cellsPerEvent(flat) < cellsPerEvent(bulk)/3,
		fmt.Sprintf("%.4f vs %.4f", cellsPerEvent(flat), cellsPerEvent(bulk)))
	var named float64
	for _, m := range []string{"rtclient.open", "rtenv.grant_wait", "rtenv.kernel_connect", "rtenv.kernel_bind", "rtenv.kernel_close"} {
		named += tsetup["span_share_pct."+m]
	}
	sum := named + tsetup["rtenv.unattributed_pct"]
	check("real_setup spans + unattributed = 100% of the setup root span", math.Abs(sum-100) < 0.01,
		fmt.Sprintf("%.3f%% named + %.3f%% unattributed", named, tsetup["rtenv.unattributed_pct"]))
	return ok
}

// runSelfcheck runs the untraced suite twice in one invocation,
// alternating workload order, and fails unless every exact metric is
// identical and every bounded metric agrees within its own bound.
func runSelfcheck(seed uint64, stop stopRule) int {
	var passes [2]map[string]*result
	for pass := range passes {
		passes[pass] = map[string]*result{}
		for i := range workloads {
			w := workloads[i]
			if pass == 1 {
				w = workloads[len(workloads)-1-i]
			}
			r, err := child(w.name, seed, false, stop, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			passes[pass][w.name] = r
		}
	}
	fmt.Println("== selfcheck: pass A vs pass B")
	fmt.Printf("%-18s %-34s %16s %16s %9s %7s  %s\n", "workload", "metric", "A", "B", "spread", "bound", "verdict")
	ok := true
	for _, w := range workloads {
		a, b := passes[0][w.name], passes[1][w.name]
		row := func(metric string, va, vb, bound float64, exact bool) {
			spread := 0.0
			if va != 0 {
				spread = math.Abs(va-vb) / math.Abs(va)
			}
			verdict, limit := "ok", fmt.Sprintf("%.2f", bound)
			if exact {
				limit = "exact"
				if va != vb {
					verdict = "FAIL"
				}
			} else if spread > bound {
				verdict = "FAIL"
			}
			if verdict == "FAIL" {
				ok = false
			}
			if !exact || verdict == "FAIL" {
				fmt.Printf("%-18s %-34s %16.4f %16.4f %8.2f%% %7s  %s\n", w.name, metric, va, vb, 100*spread, limit, verdict)
			}
		}
		if !a.Correct || !b.Correct {
			fmt.Printf("%-18s incorrect run (A ok=%v, B ok=%v)\n", w.name, a.Correct, b.Correct)
			ok = false
		}
		for _, d := range endToEnd {
			row(d.Name, a.EndToEnd[d.Name], b.EndToEnd[d.Name], d.Bound, false)
		}
		exact := 0
		for _, d := range perLayer {
			va, inA := a.Layers[d.Name]
			vb, inB := b.Layers[d.Name]
			if !inA && !inB {
				continue
			}
			if bound, bounded := selfBounds[d.Name]; bounded {
				row(d.Name, va, vb, bound, false)
			} else if d.Exact {
				exact++
				row(d.Name, va, vb, 0, true)
			}
		}
		fmt.Printf("%-18s %d exact metrics compared\n", w.name, exact)
	}
	if !ok {
		fmt.Println("FAIL: the two passes disagree")
		return 1
	}
	fmt.Println("PASS")
	return 0
}
