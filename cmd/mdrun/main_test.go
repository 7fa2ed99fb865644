package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRanksRunPublishesItsDecomposition builds the command and runs both
// paths. With -ranks N the manifest must carry the simulated run's §3.2
// decomposition — every rank's repro_phase_seconds_total, summing to the
// "virtual wall" split the run prints — not the idle sequential engine's
// six zero series for rank 0.
func TestRanksRunPublishesItsDecomposition(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mdrun")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mdrun").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("mdrun %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
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
