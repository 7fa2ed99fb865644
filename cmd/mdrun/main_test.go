package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// build compiles the command into a temporary directory and returns that
// directory and a runner: one run there, its combined output and exit code.
func build(t *testing.T) (string, func(args ...string) (string, int)) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mdrun")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mdrun").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("mdrun %s: %v", strings.Join(args, " "), err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
}

// TestRanksRunPublishesItsDecomposition builds the command and runs both
// paths. With -ranks N the manifest must carry the simulated run's §3.2
// decomposition — every rank's repro_phase_seconds_total, summing to the
// "virtual wall" split the run prints — not the idle sequential engine's
// six zero series for rank 0.
func TestRanksRunPublishesItsDecomposition(t *testing.T) {
	dir, mdrun := build(t)
	run := func(args ...string) string {
		t.Helper()
		out, code := mdrun(args...)
		if code != 0 {
			t.Fatalf("mdrun %s: exit %d\n%s", strings.Join(args, " "), code, out)
		}
		return out
	}

	// The sequential engine: two steps and its host-clock decomposition.
	seq := run("-steps", "2")
	if !regexp.MustCompile(`(?m)^ +2 +\S+ +\S+ +\S+ +\S+ +\S+$`).MatchString(seq) ||
		!strings.Contains(seq, "wall decomposition (host s): classic compute ") {
		t.Errorf("sequential run: no step-2 row or no host decomposition:\n%s", seq)
	}

	const ranks = 4
	out := run("-steps", "2", "-ranks", fmt.Sprint(ranks), "-minimize", "0", "-obs-manifest", "m.json")
	split := regexp.MustCompile(`virtual wall: \S+ s \| classic comp (\S+) comm (\S+) sync (\S+) \| pme comp (\S+) comm (\S+) sync (\S+)`).FindStringSubmatch(out)
	if split == nil {
		t.Fatalf("no virtual wall line:\n%s", out)
	}
	// Both paths print one table, and the simulated cluster's trajectory is
	// the sequential engine's, temperature column included.
	want, got := energyRow.FindAllString(run("-steps", "2", "-minimize", "0"), -1), energyRow.FindAllString(out, -1)
	if len(want) != 2 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("-ranks %d rows\n%s\nwant the sequential engine's\n%s", ranks, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	m, err := obs.LoadManifest(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	// seconds[rank][phase][bucket], as printed.
	seconds := map[string]map[string]map[string]string{}
	for _, pt := range m.Metrics {
		if pt.Name != "repro_phase_seconds_total" {
			continue
		}
		r, ph := pt.Labels["rank"], pt.Labels["phase"]
		if seconds[r] == nil {
			seconds[r] = map[string]map[string]string{"classic": {}, "pme": {}}
		}
		seconds[r][ph][pt.Labels["bucket"]] = fmt.Sprintf("%.3f", pt.Value)
	}
	if len(seconds) != ranks {
		t.Fatalf("manifest has repro_phase_seconds_total for %d ranks, want %d: %v", len(seconds), ranks, seconds)
	}
	// The printed split is, per phase, the rank with the longest phase
	// wall; some rank's series must read exactly that triple.
	for i, phase := range []string{"classic", "pme"} {
		want := split[1+3*i : 4+3*i]
		found := false
		for _, byPhase := range seconds {
			b := byPhase[phase]
			if b["compute"] == want[0] && b["comm"] == want[1] && b["sync"] == want[2] {
				found = true
			}
		}
		if !found {
			t.Errorf("no rank's %s series reads the printed comp %s comm %s sync %s: %v", phase, want[0], want[1], want[2], seconds)
		}
	}
}

// energyRow matches one row of the energy table both paths print.
var energyRow = regexp.MustCompile(`(?m)^ +\d+( +\S+){5}$`)

// TestGuardFlags: an armed guard that never trips prints the energy rows
// of the unguarded run, and every guard flag mdrun cannot honour is a
// usage error, never a silent ignore.
func TestGuardFlags(t *testing.T) {
	_, mdrun := build(t)
	plain, code := mdrun("-steps", "3")
	guarded, gcode := mdrun("-steps", "3", "-guard", "-guard-drift", "1e6", "-guard-window", "1")
	if code != 0 || gcode != 0 {
		t.Fatalf("exit %d unguarded, %d guarded:\n%s\n%s", code, gcode, plain, guarded)
	}
	want, got := energyRow.FindAllString(plain, -1), energyRow.FindAllString(guarded, -1)
	if len(want) != 3 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("guarded rows\n%s\nwant the unguarded\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	for _, tc := range []struct{ args, want string }{
		{"-guard -guard-drift -1", "mdrun: -guard-drift must be >= 0 (got -1)\n"},
		{"-guard -guard-window -1", "mdrun: -guard-window must be >= 0 (got -1)\n"},
		{"-guard-drift 5", "mdrun: -guard-drift and -guard-window need -guard\n"},
		{"-guard-window 4", "mdrun: -guard-drift and -guard-window need -guard\n"},
	} {
		if out, code := mdrun(strings.Fields(tc.args)...); out != tc.want || code != 2 {
			t.Errorf("mdrun %s: exit %d, output %q; want exit 2, %q", tc.args, code, out, tc.want)
		}
	}
}
