package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestLinkFaultSlowsTheRun builds the command and runs a link fault at
// severities 0 and 1: the table has one row per severity, the severity-0
// row is the healthy baseline (1.00x) and the faulted one is slower.
func TestLinkFaultSlowsTheRun(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "faultbench")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/faultbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-spec", "link@0,node=1,bw=8", "-severity", "0,1",
		"-p", "4", "-steps", "2", "-atoms", "300", "-mw", "mpi").CombinedOutput()
	if err != nil {
		t.Fatalf("faultbench: %v\n%s", err, out)
	}
	rows := regexp.MustCompile(`(?m)^MPI +(\S+) +\S+ +(\S+)x `).FindAllStringSubmatch(string(out), -1)
	if len(rows) != 2 || rows[0][1] != "0" || rows[0][2] != "1.00" || rows[1][1] != "1" {
		t.Fatalf("want a severity-0 row at 1.00x and a severity-1 row, got %q:\n%s", rows, out)
	}
	if slowdown, err := strconv.ParseFloat(rows[1][2], 64); err != nil || slowdown <= 1 {
		t.Fatalf("the faulted run's slowdown is %sx, want above 1:\n%s", rows[1][2], out)
	}
}
