package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneScenarioPasses builds the command and soaks one seeded scenario
// on a small box: the run must end in the PASS line, exit 0, and report
// the scenario it drew.
func TestOneScenarioPasses(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "chaos")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/chaos").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-runs", "1", "-steps", "2", "-atoms", "100", "-p", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("chaos: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "soaking 1 scenarios: p=4 ") ||
		!strings.Contains(string(out), "PASS: 1 runs, ") {
		t.Fatalf("no scenario header or PASS line:\n%s", out)
	}
}
