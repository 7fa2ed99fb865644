package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/bstat"
)

// writeSet stores one record per value for every workload of the real
// manifest, with op_ms scaled by slow on the last workload.
func writeSet(t *testing.T, m *bstat.Manifest, path string, slow float64) {
	t.Helper()
	for i := 0; i < 5; i++ {
		for wi, w := range m.Workloads {
			rec := bstat.Record{Workload: w.Name, Correct: true, Attempted: 10, Metrics: map[string]bstat.Value{}}
			for _, d := range m.EndToEnd {
				v := 100 + float64(i) // a 4 % range
				if d.Name == "op_ms" && wi == len(m.Workloads)-1 {
					v *= slow
				}
				rec.Metrics[d.Name] = bstat.Value{Value: v, Unit: d.Unit}
			}
			if err := bstat.AppendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestExitCodeFollowsVerdicts(t *testing.T) {
	const manifest = "../../BENCHMARK.json"
	m, err := bstat.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, same, slow := filepath.Join(dir, "base"), filepath.Join(dir, "same"), filepath.Join(dir, "slow")
	writeSet(t, m, base, 1)
	writeSet(t, m, same, 1)
	writeSet(t, m, slow, 1.3)

	var out, errOut bytes.Buffer
	if code := run(manifest, []string{base, same}, &out, &errOut); code != 0 {
		t.Errorf("same sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(m.Workloads)*len(m.EndToEnd) {
		t.Errorf("%d lines, want a header and one row per workload × metric:\n%s", rows, out.String())
	}
	out.Reset()
	if code := run(manifest, []string{base, slow}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower op_ms: exit %d\n%s", code, out.String())
	}
	if code := run(manifest, []string{base}, &out, &errOut); code != 2 {
		t.Errorf("one argument: exit %d", code)
	}
	if code := run(manifest, []string{base, filepath.Join(dir, "absent")}, &out, &errOut); code != 2 {
		t.Errorf("missing set: exit %d", code)
	}
}
