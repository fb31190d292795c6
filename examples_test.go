package xunet_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it: each
// must exit 0 and end on the line that states its outcome.
func TestExamplesRun(t *testing.T) {
	closing := map[string]string{
		"fileserver": "open VCs at end: 2 (2 signaling PVCs expected)",
		"iphost":     "fabric: 207 cells, 0 dropped",
		"porting":    "and gained per-circuit QoS.",
		"quickstart": "all signaling state drained cleanly",
		"video":      "best-effort bulk frames offered: 600",
	}
	bin := t.TempDir()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goCmd, "build", "-o", bin+"/", "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	dirs, _ := filepath.Glob("examples/*")
	if len(dirs) != len(closing) {
		t.Fatalf("examples/ holds %d programs, the test knows %d", len(dirs), len(closing))
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			if last := lines[len(lines)-1]; !strings.HasSuffix(last, closing[name]) {
				t.Fatalf("closing line %q, want it to end %q", last, closing[name])
			}
		})
	}
}
