package pmd

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/netmodel"
)

// runWith executes the test workload under full control of the host-
// parallelism, tape and fault knobs.
func runWith(t *testing.T, p, steps, workers int, tape *Tape, faults cluster.FaultModel) *Result {
	t.Helper()
	sys := testSystem(100, 24, 1)
	res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System:      sys,
		MD:          testMDConfig(),
		Steps:       steps,
		Middleware:  MiddlewareMPI,
		Tape:        tape,
		HostWorkers: workers,
		Faults:      faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustEqualResults asserts bitwise-identical run outcomes: virtual wall
// clock, per-rank accounting, per-step phase timings, energies and final
// positions (all float64 comparisons are exact — that is the claim).
func mustEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Wall != b.Wall {
		t.Fatalf("%s: wall %v vs %v", label, a.Wall, b.Wall)
	}
	if !reflect.DeepEqual(a.Acct, b.Acct) {
		t.Fatalf("%s: accounting differs\n%+v\nvs\n%+v", label, a.Acct, b.Acct)
	}
	if !reflect.DeepEqual(a.Timings, b.Timings) {
		t.Fatalf("%s: step timings differ", label)
	}
	if !reflect.DeepEqual(a.Energies, b.Energies) {
		t.Fatalf("%s: energies differ", label)
	}
	if !reflect.DeepEqual(a.FinalPos, b.FinalPos) {
		t.Fatalf("%s: final positions differ", label)
	}
}

// TestHostParallelMatchesSerial is the central determinism claim of the
// tape's engine: any HostWorkers produces bitwise-identical
// simulation results. TCP/IP is the stall-drawing network, so any event
// reordering would shift the stall RNG stream and show up immediately.
func TestHostParallelMatchesSerial(t *testing.T) {
	serial := runWith(t, 4, 3, 0, nil, nil)
	for _, workers := range []int{2, 4, 8} {
		par := runWith(t, 4, 3, workers, nil, nil)
		mustEqualResults(t, "workers="+string(rune('0'+workers)), serial, par)
	}
}

// TestHostParallelRepeatable: three repeated runs on four host workers
// are bitwise identical to each other.
func TestHostParallelRepeatable(t *testing.T) {
	first := runWith(t, 4, 3, 4, nil, nil)
	for i := 0; i < 2; i++ {
		mustEqualResults(t, "repeat", first, runWith(t, 4, 3, 4, nil, nil))
	}
}

func testInjector(t *testing.T) *fault.Injector {
	t.Helper()
	sc, err := fault.ParseSpec("straggler@0:50,node=1,slow=3;link@0:80,bw=4,lat=2,stall=2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(sc, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestHostParallelDeterministicUnderFaults repeats the one-lane-vs-four
// and run-to-run checks with stragglers and link degradation active: the
// fault model's time-varying compute scaling must give the same schedule
// whatever the engine's host worker count.
func TestHostParallelDeterministicUnderFaults(t *testing.T) {
	serial := runWith(t, 4, 3, 0, nil, testInjector(t))
	for i := 0; i < 2; i++ {
		par := runWith(t, 4, 3, 4, nil, testInjector(t))
		mustEqualResults(t, "faulted", serial, par)
	}
}

// TestTapeReplayMatches: a replayed run must be indistinguishable from the
// recording run — same timings, accounting, energies and positions —
// despite executing none of the MD kernels.
func TestTapeReplayMatches(t *testing.T) {
	tape := NewTape()
	rec := runWith(t, 4, 3, 0, tape, nil)
	if !tape.Complete() {
		t.Fatal("tape not completed by recording run")
	}
	replay := runWith(t, 4, 3, 0, tape, nil)
	mustEqualResults(t, "replay", rec, replay)

	// The same replay at HostWorkers 4.
	mustEqualResults(t, "replay-parallel", rec, runWith(t, 4, 3, 4, tape, nil))
}

// TestTapeShapeMismatchIgnored: a tape recorded at one rank count serves
// a run at another: the run equals one given no tape, and the tape holds
// the same states, which no further engine evaluated.
func TestTapeShapeMismatchIgnored(t *testing.T) {
	tape := NewTape()
	runWith(t, 4, 3, 0, tape, nil)
	ref := runWith(t, 2, 3, 0, nil, nil)
	got := runWith(t, 2, 3, 0, tape, nil)
	mustEqualResults(t, "mismatch", ref, got)
	if n := held(tape); n != 4 || tape.built != 1 {
		t.Fatalf("the tape holds %d states from %d engines, want 4 from 1", n, tape.built)
	}
}
