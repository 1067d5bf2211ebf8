package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBinaryExcludesBaselines pins that the server binary links only the
// production structure: the sequential HDT baseline, the skip-list
// substrate, the static recomputation and the sketch structure are
// comparison points for the experiments and examples, not server code.
func TestBinaryExcludesBaselines(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "list", "-deps", ".")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["repro/internal/core"] {
		t.Fatalf("go list -deps does not list repro/internal/core; output:\n%s", out)
	}
	for _, p := range []string{
		"repro/internal/hdt",
		"repro/internal/skiplist",
		"repro/internal/static",
		"repro/internal/sketch",
	} {
		if deps[p] {
			t.Errorf("connserver links %s", p)
		}
	}
}
