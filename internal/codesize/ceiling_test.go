package codesize

import (
	"io/fs"
	"path/filepath"
	"testing"
)

// lineCeiling is the most non-test Go lines the module may hold outside
// bench/. A change that deletes code lowers it to the new count; raising
// it takes a line in CHANGES.md saying why.
const lineCeiling = 20409

// TestLineCeiling counts what `make loc` counts, every non-test .go file
// under the module root outside bench/ (testdata included), directory by
// directory with Table 2's walker, and fails above lineCeiling.
func TestLineCeiling(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		if rel == "bench" {
			return filepath.SkipDir
		}
		lines, err := countSource(root, rel, nil)
		total += lines
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d non-test Go lines outside bench/ (ceiling %d)", total, lineCeiling)
	if total > lineCeiling {
		t.Errorf("%d non-test Go lines outside bench/, above the ceiling of %d", total, lineCeiling)
	}
}
