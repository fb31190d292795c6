package testbed_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The goldens: a test renders its scenario's output as text and
// compares it line by line with testdata/<name>.golden, the fixed
// history of that output. `go test -update` re-records the files from
// what the tests render; the diff of testdata/ then shows what moved.

var update = flag.Bool("update", false, "re-record testdata/*.golden from what the tests render")

// checkGolden holds got to testdata/<name>.golden, or writes it there
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := compareGolden(path, got); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// compareGolden reads the golden at path and diffs got against it.
func compareGolden(path string, got []byte) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%v (go test -update records it)", err)
	}
	return diffLines(path, want, "rendered", got)
}

// diffLines names the first line where a and b differ and shows it
// with up to three lines of context from each side.
func diffLines(aName string, a []byte, bName string, b []byte) error {
	if bytes.Equal(a, b) {
		return nil
	}
	al, bl := strings.SplitAfter(string(a), "\n"), strings.SplitAfter(string(b), "\n")
	i := 0
	for i < len(al) && i < len(bl) && al[i] == bl[i] {
		i++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s and %s differ at line %d", aName, bName, i+1)
	for _, side := range []struct {
		name  string
		lines []string
	}{{aName, al}, {bName, bl}} {
		fmt.Fprintf(&sb, "\n%s:", side.name)
		for j := max(i-3, 0); j <= i+3; j++ {
			if j >= len(side.lines) || side.lines[j] == "" {
				fmt.Fprintf(&sb, "\n%6d  (end of text)", j+1)
				break
			}
			line, ok := strings.CutSuffix(side.lines[j], "\n")
			if !ok {
				line += " (no newline at end)"
			}
			fmt.Fprintf(&sb, "\n%6d  %s", j+1, line)
		}
	}
	return errors.New(sb.String())
}

// oneRecordPerLine puts each record of a one-line JSON array on a line
// of its own. The printed bytes are the stored file with every "},\n{"
// turned back into "},{" — encoding/json writes no raw newline inside
// its output, so every such newline is one this inserted.
func oneRecordPerLine(b []byte) []byte {
	return bytes.ReplaceAll(b, []byte("},{"), []byte("},\n{"))
}

// TestGoldenDiff pins the failure text of the comparison.
func TestGoldenDiff(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "row.golden")
	if err := os.WriteFile(path, []byte("a\nb\nc\nd\ne\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, got, want string
	}{
		{"same", "a\nb\nc\nd\ne\n", ""},
		{"middle line differs", "a\nb\nX\nd\ne\n", path + ` and rendered differ at line 3
` + path + `:
     1  a
     2  b
     3  c
     4  d
     5  e
     6  (end of text)
rendered:
     1  a
     2  b
     3  X
     4  d
     5  e
     6  (end of text)`},
		{"extra trailing line", "a\nb\nc\nd\ne\nf\n", path + ` and rendered differ at line 6
` + path + `:
     3  c
     4  d
     5  e
     6  (end of text)
rendered:
     3  c
     4  d
     5  e
     6  f
     7  (end of text)`},
		{"missing trailing line", "a\nb\nc\nd\n", path + ` and rendered differ at line 5
` + path + `:
     2  b
     3  c
     4  d
     5  e
     6  (end of text)
rendered:
     2  b
     3  c
     4  d
     5  (end of text)`},
		{"missing final newline", "a\nb\nc\nd\ne", path + ` and rendered differ at line 5
` + path + `:
     2  b
     3  c
     4  d
     5  e
     6  (end of text)
rendered:
     2  b
     3  c
     4  d
     5  e (no newline at end)
     6  (end of text)`},
	} {
		err := compareGolden(path, []byte(c.got))
		if got := fmt.Sprint(err); (err == nil) != (c.want == "") || err != nil && got != c.want {
			t.Errorf("%s: got\n%s\nwant\n%s", c.what, got, c.want)
		}
	}
	missing := filepath.Join(dir, "none.golden")
	if err := compareGolden(missing, nil); err == nil || !strings.Contains(err.Error(), "no such file") || !strings.Contains(err.Error(), "-update") {
		t.Errorf("missing file: got %v", err)
	}
}

// TestGoldenFilesHaveRows fails on a testdata/*.golden no test reads,
// so renaming a row cannot leave its old file behind.
func TestGoldenFilesHaveRows(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".golden"); !slices.Contains(goldens, name) {
			t.Errorf("%s: no test reads it", f)
		}
	}
}
