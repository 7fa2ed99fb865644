package pmd

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
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
// host-parallel scheduler: any worker-pool size produces bitwise-identical
// simulation results. TCP/IP is the stall-drawing network, so any event
// reordering would shift the stall RNG stream and show up immediately.
func TestHostParallelMatchesSerial(t *testing.T) {
	serial := runWith(t, 4, 3, 0, nil, nil)
	for _, workers := range []int{2, 4, 8} {
		par := runWith(t, 4, 3, workers, nil, nil)
		mustEqualResults(t, "workers="+string(rune('0'+workers)), serial, par)
	}
}

// TestHostParallelRepeatable: three repeated host-parallel runs are
// bitwise identical to each other.
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

// TestHostParallelDeterministicUnderFaults repeats the serial-vs-parallel
// and run-to-run checks with stragglers and link degradation active: the
// fault model's time-varying compute scaling must not break the schedule
// reproduction (segment bounds are scaled by the same factor sampled at
// the same virtual instant).
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

	// Host-parallel replay too.
	mustEqualResults(t, "replay-parallel", rec, runWith(t, 4, 3, 4, tape, nil))
}

// TestTapeShapeMismatchIgnored: a tape recorded for one rank count must
// not corrupt a run at another; the run silently falls back to real
// physics and leaves the tape untouched.
func TestTapeShapeMismatchIgnored(t *testing.T) {
	tape := NewTape()
	runWith(t, 4, 3, 0, tape, nil)
	ref := runWith(t, 2, 3, 0, nil, nil)
	got := runWith(t, 2, 3, 0, tape, nil)
	mustEqualResults(t, "mismatch", ref, got)
	if tape.p != 4 {
		t.Fatalf("tape clobbered: p=%d", tape.p)
	}
}

// TestListCacheKeepsNewestGeneration: the pair-list cache the ranks share
// holds the newest generation only, so a long run retains one list instead
// of every list it built, and the trajectory is bit for bit the one the
// cache produced while it kept every generation (digest taken then, amd64).
func TestListCacheKeepsNewestGeneration(t *testing.T) {
	mdc := testMDConfig()
	mdc.FF.ListCutoff = 9.5 // a thin skin: three rebuilds in 20 steps
	cfg := Config{System: testSystem(100, 24, 1), MD: mdc, Steps: 20, Middleware: MiddlewareMPI}
	var sh *shared
	gen := 0
	cfg.onStep = func(w *worker, step int) {
		if w.me() == 0 {
			sh, gen = w.sh, w.listGen
		}
	}
	res, err := Run(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gen < 3 {
		t.Fatalf("only %d rebuilds after the first build, want several", gen)
	}
	if sh.lists.e == nil || sh.lists.gen != gen {
		t.Fatalf("cache holds generation %d, the run ended on %d", sh.lists.gen, gen)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v", res.Energies, res.FinalPos, res.Wall)
	const want = "b7186cc23724fedf06018aac13d1ff7d9556a2cd4dd5f4faf1bc16033176a548"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("result digest %s, want %s", got, want)
	}
}
