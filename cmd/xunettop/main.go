// Command xunettop is a live terminal viewer for a sighost daemon's
// continuous telemetry — top for the signaling entity. It polls the
// MGMT tseries and health queries in-band over the signaling RPC
// protocol and redraws every interval, most-active series first. Every
// query of every tick rides one connection to the daemon, opened at the
// first and reopened only if the daemon hangs up:
//
//	sighost -metrics 127.0.0.1:9177        # arms the scrape
//	xunettop -sighost 127.0.0.1:3177
//	xunettop -match sighost.rel.           # only retransmit/backlog series
//	xunettop -once                         # one frame, no screen control
//
// Series lines are the store's latest samples (counter rates, gauge
// levels with high-water, histogram P99s); the health panel shows each
// watermark rule's state and the recent fire/clear events. When the
// daemon has an execution profiler armed, a SHARDS panel adds the
// per-shard window/stall table and the critical-shard ranking from the
// MGMT prof view.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"xunet/internal/signaling"
)

func main() {
	addr := flag.String("sighost", "127.0.0.1:3177", "sighost daemon TCP address")
	interval := flag.Duration("interval", time.Second, "refresh interval (every tick's queries ride one kept connection)")
	match := flag.String("match", "", "only show series whose name contains this substring")
	topN := flag.Int("n", 0, "show only the n most active series (0 = all)")
	once := flag.Bool("once", false, "print one frame and exit (no screen clearing)")
	flag.Parse()

	c := &signaling.RealClient{SighostAddr: *addr}
	defer c.Close()
	for {
		frame, err := render(c, *match, *topN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xunettop:", err)
			os.Exit(1)
		}
		if *once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear below, rather than a full clear, so
		// the redraw doesn't flicker.
		fmt.Print("\x1b[H\x1b[J" + frame)
		time.Sleep(*interval)
	}
}

// render fetches one snapshot and formats the full frame.
func render(c *signaling.RealClient, match string, topN int) (string, error) {
	series, err := c.Client().Query(signaling.MgmtTSeries, 0, 0)
	if err != nil {
		return "", err
	}
	health, err := c.Client().Query(signaling.MgmtHealth, 0, 0)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "xunettop — %s — %s\n\n", c.SighostAddr, time.Now().Format("15:04:05"))
	b.WriteString(seriesPanel(series, match, topN))
	b.WriteString("\nHEALTH\n")
	for _, line := range strings.Split(strings.TrimRight(health, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	// The SHARDS panel rides the same poll; a daemon without a profiler
	// answers with the disabled text and the panel is simply omitted.
	if prof, err := c.Client().Query(signaling.MgmtProf, 0, 0); err == nil {
		b.WriteString(shardPanel(prof))
	}
	return b.String(), nil
}

// shardPanel condenses the MGMT prof view to its group half: window and
// stall accounting per shard, the barrier-stall summary with the
// critical-shard ranking, and the cross-shard matrix. The per-label
// detail (the bulk of the view) stays with `xunetstat prof`.
func shardPanel(text string) string {
	if strings.HasPrefix(text, "execution profiling disabled") {
		return ""
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		// The per-shard label detail starts at the first "shard N: events"
		// line; everything before it is the group summary the panel wants.
		if strings.HasPrefix(line, "shard ") && strings.Contains(line, ": events") {
			break
		}
		rows = append(rows, line)
	}
	if len(rows) == 0 {
		// A flat (unsharded) profile has no group half to summarize.
		return ""
	}
	var b strings.Builder
	b.WriteString("\nSHARDS\n")
	for _, line := range rows {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// seriesPanel reorders the daemon's name-sorted series lines by
// activity: the first numeric field (rate= or value=) descending, name
// as the tiebreak, optionally filtered and truncated.
func seriesPanel(text string, match string, topN int) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 {
		return text
	}
	header, rest := lines[0], lines[1:]
	type row struct {
		line string
		v    int64
	}
	rows := make([]row, 0, len(rest))
	for _, line := range rest {
		if match != "" && !strings.Contains(line, match) {
			continue
		}
		rows = append(rows, row{line: line, v: firstValue(line)})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	shown := len(rows)
	if topN > 0 && topN < shown {
		shown = topN
	}
	var b strings.Builder
	b.WriteString(header + "\n")
	for _, r := range rows[:shown] {
		b.WriteString("  " + r.line + "\n")
	}
	if shown < len(rows) {
		fmt.Fprintf(&b, "  ... %d more (raise -n)\n", len(rows)-shown)
	}
	return b.String()
}

// firstValue pulls the first k=<integer> field out of a series line.
func firstValue(line string) int64 {
	i := strings.IndexByte(line, '=')
	if i < 0 {
		return 0
	}
	rest := line[i+1:]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0
	}
	return v
}
