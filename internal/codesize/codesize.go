// Package codesize measures Table 2 of the paper: "Code sizes for
// principal components at a host". The paper reports lines of C
// (with comments) plus text/data/BSS segment sizes; this reproduction
// counts lines of Go (with comments) for the corresponding modules, and
// the root TestPaperClaims sets them beside the paper's. Segment sizes
// have no stable Go equivalent and are recorded in EXPERIMENTS.md as
// not reproduced. The package's tests also hold the module's code-size
// ledger: its line ceiling and the reachability check.
package codesize

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Row is one component of Table 2.
type Row struct {
	Component string
	GoLines   int      // measured lines of Go (non-test)
	Sources   []string // package dirs / files counted
	Except    []string // files under Sources not counted
	// Ours marks a row with no counterpart in the paper: it is reported
	// beside the table and left out of the paper-comparable total.
	Ours bool
}

// components maps the paper's Table 2 rows to this reproduction's
// modules. Paths are relative to the repository root; an entry may be a
// directory (all non-test .go files) or a single file. The Sighost row
// is the paper's whole component: the state machine's handlers, the
// protocol table that routes inputs to them, the select loop's inputs
// and dispatch, the call records its lists hold, and its messages; the
// daemon row adds what this reproduction built around it (journal,
// reliable peer channel, MGMT, the sim and real Env glue). The user
// library is the paper's configuration: the verbs over the host's own
// IPC. The real-TCP transport (rtclient.go) is in neither.
var components = []Row{
	{Component: "Sighost", Sources: []string{"internal/signaling/sighost.go", "internal/signaling/events.go",
		"internal/signaling/actor.go", "internal/signaling/calls.go", "internal/sigmsg"}},
	{Component: "daemon (ours)", Ours: true, Sources: []string{"internal/signaling", "internal/sigmsg"},
		Except: []string{"internal/signaling/client.go", "internal/signaling/rtclient.go"}},
	{Component: "User lib", Sources: []string{"internal/signaling/client.go", "internal/ulib"}},
	{Component: "/dev/anand", Sources: []string{"internal/kern/pseudodev.go", "internal/anand"}},
	{Component: "PF_XUNET", Sources: []string{"internal/pfxunet"}},
	{Component: "IPPROTO_ATM", Sources: []string{"internal/protoatm"}},
	{Component: "Orc", Sources: []string{"internal/hobbit"}},
}

// RepoRoot locates the repository root from this source file's
// location.
func RepoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("codesize: cannot locate source")
	}
	// file = <root>/internal/codesize/codesize.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("codesize: %s is not the repo root: %w", root, err)
	}
	return root, nil
}

// countFile counts lines in one Go source file.
func countFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := strings.Count(string(data), "\n")
	if len(data) > 0 && !strings.HasSuffix(string(data), "\n") {
		n++
	}
	return n, nil
}

// countSource counts all non-test Go lines under a file or directory,
// except the files named in except.
func countSource(root, src string, except []string) (lines int, err error) {
	full := filepath.Join(root, src)
	info, err := os.Stat(full)
	if err != nil {
		return 0, err
	}
	if !info.IsDir() {
		return countFile(full)
	}
	entries, err := os.ReadDir(full)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			slices.Contains(except, filepath.Join(src, name)) {
			continue
		}
		n, err := countFile(filepath.Join(full, name))
		if err != nil {
			return 0, err
		}
		lines += n
	}
	return lines, nil
}

// Measure counts every Table 2 component.
func Measure() ([]Row, error) {
	root, err := RepoRoot()
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(components))
	copy(rows, components)
	for i := range rows {
		for _, src := range rows[i].Sources {
			lines, err := countSource(root, src, rows[i].Except)
			if err != nil {
				return nil, fmt.Errorf("codesize: %s: %w", src, err)
			}
			rows[i].GoLines += lines
		}
	}
	return rows, nil
}
