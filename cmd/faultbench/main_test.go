package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// build compiles the command into a temp directory.
func build(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	bin := filepath.Join(t.TempDir(), "faultbench")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/faultbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestLinkFaultSlowsTheRun builds the command and runs a link fault at
// severities 0 and 1: the table has one row per severity, the severity-0
// row is the healthy baseline (1.00x) and the faulted one is slower.
func TestLinkFaultSlowsTheRun(t *testing.T) {
	bin := build(t)
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

// TestCkptCostArmsTheTuner: a positive -ckpt-cost alone retunes the
// cadence after a crash (the manifest records it), and a negative one is
// a usage error.
func TestCkptCostArmsTheTuner(t *testing.T) {
	bin := build(t)
	manifest := filepath.Join(t.TempDir(), "m.json")
	out, err := exec.Command(bin, "-spec", "crash@0.18,rank=1", "-mw", "mpi", "-p", "8", "-steps", "3",
		"-atoms", "300", "-decomp", "domain", "-recovery", "local", "-ckpt-cost", "0.05",
		"-obs-manifest", manifest).CombinedOutput()
	if err != nil {
		t.Fatalf("faultbench: %v\n%s", err, out)
	}
	m, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m), `"interval_tuned": true`) {
		t.Fatalf("-ckpt-cost 0.05 left the tuner unarmed:\n%s\n%s", out, m)
	}

	out, err = exec.Command(bin, "-spec", "crash@0.18,rank=1", "-mw", "mpi", "-p", "4", "-steps", "1",
		"-atoms", "300", "-ckpt-cost", "-1").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "-ckpt-cost") {
		t.Fatalf("negative -ckpt-cost: want a usage error (exit 2) naming the flag, got %v:\n%s", err, out)
	}
}

// TestSpecFromFile: -spec @file.json reads the JSON scenario, and the
// scenario the DSL spells gives the same report byte for byte; a missing
// file is a usage error.
func TestSpecFromFile(t *testing.T) {
	bin := build(t)
	file := filepath.Join(t.TempDir(), "link.json")
	scenario := `{"name": "cli", "seed": 1, "faults": [{"kind": "link", "start": 0, "node": 1, "bandwidth": 8}]}`
	if err := os.WriteFile(file, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-severity", "0,1", "-p", "4", "-steps", "2", "-atoms", "300", "-mw", "mpi"}
	fromFile, err := exec.Command(bin, append([]string{"-spec", "@" + file}, args...)...).Output()
	if err != nil {
		t.Fatalf("faultbench -spec @%s: %v", file, err)
	}
	fromDSL, err := exec.Command(bin, append([]string{"-spec", "link@0,node=1,bw=8"}, args...)...).Output()
	if err != nil {
		t.Fatalf("faultbench -spec link@0,node=1,bw=8: %v", err)
	}
	if string(fromFile) != string(fromDSL) {
		t.Fatalf("the file and the DSL spell one scenario, the reports differ:\n%s\n%s", fromFile, fromDSL)
	}

	out, err := exec.Command(bin, append([]string{"-spec", "@" + file + ".missing"}, args...)...).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "link.json.missing") {
		t.Fatalf("missing scenario file: want a usage error (exit 2) naming it, got %v:\n%s", err, out)
	}
}

// TestUntransformableMeshFailsBeforeRelaxing: 300 000 atoms give a 148 =
// 4·37 PME mesh, which the FFT cannot transform. faultbench checks the mesh
// before it relaxes the box, so the usage error comes at once.
func TestUntransformableMeshFailsBeforeRelaxing(t *testing.T) {
	bin := build(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-atoms", "300000", "-p", "4", "-spec", "crash@0.18,rank=1")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if ctx.Err() != nil || !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(stderr.String(), "148×148×148") {
		t.Fatalf("want exit 2 within 30 s naming the 148×148×148 mesh, got %v (deadline: %v):\n%s", err, ctx.Err(), stderr.String())
	}
}
