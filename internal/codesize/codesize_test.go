package codesize

import "testing"

func TestRepoRoot(t *testing.T) {
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root == "" {
		t.Fatal("empty root")
	}
}

func TestMeasureAllComponentsNonEmpty(t *testing.T) {
	rows, err := Measure()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want the 6 components of Table 2 and the whole daemon", len(rows))
	}
	for _, r := range rows {
		if r.GoLines == 0 {
			t.Errorf("%s: measured no lines in %q", r.Component, r.Sources)
		}
	}
}

func TestShapeMatchesPaper(t *testing.T) {
	// Table 2's shape: sighost is by far the largest component, and the
	// Orc driver and IPPROTO_ATM are among the smallest. Verify the
	// ordering relations the paper's table exhibits.
	rows, err := Measure()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		if r.Ours {
			if r.GoLines <= byName["Sighost"].GoLines {
				t.Errorf("%s (%d lines) is no larger than the state machine it contains", r.Component, r.GoLines)
			}
			continue
		}
		byName[r.Component] = r
	}
	sighost := byName["Sighost"].GoLines
	for name, r := range byName {
		if name == "Sighost" {
			continue
		}
		if r.GoLines >= sighost {
			t.Errorf("%s (%d lines) >= Sighost (%d): table shape broken", name, r.GoLines, sighost)
		}
	}
	if byName["IPPROTO_ATM"].GoLines >= byName["PF_XUNET"].GoLines+byName["Sighost"].GoLines {
		t.Error("IPPROTO_ATM unexpectedly dominant")
	}
}
