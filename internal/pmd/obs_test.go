package pmd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// obsSnapshot runs the small solvated box with a registry attached and returns
// the sorted snapshot as JSON (Go prints float64 with the shortest
// representation that round-trips, so equal bytes are equal bits).
func obsSnapshot(t *testing.T, p, steps, workers int, mw MiddlewareKind, decomp DecompKind) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	_, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System:      testSystem(100, 24, 1),
		MD:          testMDConfig(),
		Steps:       steps,
		Middleware:  mw,
		Decomp:      decomp,
		HostWorkers: workers,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObsPointsGolden holds every series an instrumented run publishes —
// repro_trace_*, repro_mpi_*, repro_run_step, repro_pme_idle_ranks,
// repro_cmpi_* — to testdata/obs_points.json, which was written by this
// test's runs on the last commit whose Obs was a span recorder around the
// registry (commit 04a89a6; nothing else different). Names, label sets
// and float64 bits must all match, for one and for two host workers.
func TestObsPointsGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "obs_points.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]obs.Point
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      int
		steps  int
		mw     MiddlewareKind
		decomp DecompKind
	}{
		{"replicated_mpi_p4", 4, 3, MiddlewareMPI, DecompReplicated},
		{"replicated_cmpi_p4", 4, 3, MiddlewareCMPI, DecompReplicated},
		{"domain_mpi_p16", 16, 2, MiddlewareMPI, DecompDomain},
	} {
		want, err := json.Marshal(golden[tc.name])
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			got := obsSnapshot(t, tc.p, tc.steps, workers, tc.mw, tc.decomp)
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: registry snapshot differs from the capture\ngot:\n%s",
					tc.name, workers, got)
			}
		}
	}
}

// TestTraceCountersIgnoreCollector: the repro_trace_* families count the
// same intervals whether or not a collector keeps them. (With the span
// recorder, attaching a Tracer beside Obs silently dropped every compute,
// send, recv and sync interval from the counters.)
func TestTraceCountersIgnoreCollector(t *testing.T) {
	tracePoints := func(col *trace.Collector) []obs.Point {
		reg := obs.NewRegistry()
		cfg := domainCfg(testSystem(100, 24, 1), 2)
		cfg.Obs, cfg.Tracer = reg, col
		if _, err := Run(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg); err != nil {
			t.Fatal(err)
		}
		var out []obs.Point
		for _, pt := range reg.Snapshot() {
			if strings.HasPrefix(pt.Name, "repro_trace_") {
				out = append(out, pt)
			}
		}
		return out
	}
	col := &trace.Collector{}
	alone, with := tracePoints(nil), tracePoints(col)
	if len(alone) == 0 || col.Len() == 0 {
		t.Fatalf("nothing recorded: %d points, %d events", len(alone), col.Len())
	}
	if !reflect.DeepEqual(alone, with) {
		t.Errorf("repro_trace_* differ once a collector is attached:\nalone %+v\nwith  %+v", alone, with)
	}
	// Every kept interval is counted, plus one whole-step interval per
	// rank and step that is counted only.
	var counted float64
	for _, pt := range with {
		if pt.Name == "repro_trace_events_total" {
			counted += pt.Value
		}
	}
	if want := float64(col.Len() + 4*2); counted != want {
		t.Errorf("%v intervals counted, want the collector's %d + 8 steps", counted, col.Len())
	}
}

// TestStepEmitAllocatesNothingUnobserved: with no collector and no
// registry, publishing a step's intervals builds no label and allocates
// nothing.
func TestStepEmitAllocatesNothingUnobserved(t *testing.T) {
	allocs := -1.0
	_, err := mpi.Run(clusterCfg(1, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), func(r *mpi.Rank) {
		w := &worker{r: r}
		st := StepTiming{Classic: PhaseSample{Wall: 1}, PME: PhaseSample{Wall: 2}}
		allocs = testing.AllocsPerRun(100, func() { w.emitStep(1234, &st, 0, 3) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("emitStep allocated %v times per step with nothing attached", allocs)
	}
}

// TestRegistryAllocationOverhead bounds what attaching a registry costs a
// domain p=64 run in allocated bytes. The span recorder, which stored
// every interval twice, took the same run to 2.2x.
func TestRegistryAllocationOverhead(t *testing.T) {
	sys := testSystem(100, 24, 1)
	allocated := func(reg *obs.Registry) uint64 {
		cfg := domainCfg(sys, 2)
		cfg.Obs = reg
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(clusterCfg(64, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, observed := allocated(nil), allocated(obs.NewRegistry())
	ratio := float64(observed) / float64(plain)
	t.Logf("plain %d B, observed %d B, ratio %.3f", plain, observed, ratio)
	if ratio > 1.25 {
		t.Errorf("registry attached: %d B allocated, %.2fx the %d B of a plain run (limit 1.25x)",
			observed, ratio, plain)
	}
}
