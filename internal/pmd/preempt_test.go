package pmd

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/netmodel"
)

// TestPreemptResumeBitwiseIdentical is the graceful-preemption acceptance
// path: a run preempted mid-flight parks itself at a checkpoint boundary
// with ZERO lost work, and the resumed run stitches into figures bitwise
// identical to an uninterrupted reference.
func TestPreemptResumeBitwiseIdentical(t *testing.T) {
	sys := testSystem(48, 24, 29)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(4, 1, net)
	const steps = 6
	mk := func(dir string, onStep func(int, StepTiming, md.EnergyReport) bool) ResilientConfig {
		return ResilientConfig{
			Config: Config{
				System:     sys,
				MD:         testMDConfig(),
				Steps:      steps,
				Middleware: MiddlewareMPI,
			},
			CheckpointEvery: 4, // step 3 is off-cadence: only the forced boundary ckpt can park it
			RestartCost:     5,
			CheckpointDir:   dir,
			OnStep:          onStep,
		}
	}

	ref, err := RunResilient(cl, cost, mk("", nil))
	if err != nil {
		t.Fatal(err)
	}

	// Ask for preemption after the 2nd completed step: the run must latch
	// the next boundary (step 3) and stop exactly there.
	dir := t.TempDir()
	parked, err := RunResilient(cl, cost, mk(dir, func(step int, _ StepTiming, _ md.EnergyReport) bool {
		return step >= 1
	}))
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("want ErrPreempted, got %v", err)
	}
	if len(parked.Energies) != 3 {
		t.Fatalf("parked run reports %d steps, want 3", len(parked.Energies))
	}

	resumed, err := RunResilient(cl, cost, mk(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == nil {
		t.Fatal("restart ignored the parked checkpoint")
	}
	// Unlike a kill, preemption checkpoints the boundary it stops at:
	// resume picks up at step 3 and no on-disk work is lost.
	if resumed.Resumed.Step != 3 {
		t.Fatalf("resumed at step %d, want 3 (the preemption boundary)", resumed.Resumed.Step)
	}
	if resumed.Resumed.LostOnDisk != 0 {
		t.Fatalf("graceful preemption lost %g virtual seconds on disk, want 0", resumed.Resumed.LostOnDisk)
	}

	stitched := append(append([]md.EnergyReport{}, parked.Energies...), resumed.Energies...)
	if len(stitched) != len(ref.Energies) {
		t.Fatalf("stitched %d steps, reference %d", len(stitched), len(ref.Energies))
	}
	for i := range stitched {
		if stitched[i] != ref.Energies[i] {
			t.Fatalf("step %d: stitched energies differ from uninterrupted reference", i)
		}
	}
	for i, p := range ref.Final.FinalPos {
		if resumed.Final.FinalPos[i] != p {
			t.Fatalf("atom %d: final position differs from uninterrupted reference", i)
		}
	}
}

// TestPreemptRepeatedCycles: a run preempted on every other boundary still
// converges — each cycle makes progress (the boundary after the latch) and
// the final state matches the uninterrupted reference bitwise.
func TestPreemptRepeatedCycles(t *testing.T) {
	sys := testSystem(48, 24, 31)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(3, 1, net)
	const steps = 5
	mk := func(dir string, onStep func(int, StepTiming, md.EnergyReport) bool) ResilientConfig {
		return ResilientConfig{
			Config: Config{
				System:     sys,
				MD:         testMDConfig(),
				Steps:      steps,
				Middleware: MiddlewareMPI,
			},
			CheckpointEvery: 2,
			RestartCost:     5,
			CheckpointDir:   dir,
			OnStep:          onStep,
		}
	}
	ref, err := RunResilient(cl, cost, mk("", nil))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	greedy := func(int, StepTiming, md.EnergyReport) bool { return true } // preempt at the first boundary of every cycle
	var last *ResilientResult
	cycles := 0
	var got []md.EnergyReport
	for {
		res, err := RunResilient(cl, cost, mk(dir, greedy))
		if res != nil {
			got = append(got, res.Energies...)
		}
		if err == nil {
			last = res
			break
		}
		if !errors.Is(err, ErrPreempted) {
			t.Fatal(err)
		}
		cycles++
		if cycles > steps {
			t.Fatalf("no convergence after %d preemption cycles", cycles)
		}
	}
	if cycles == 0 {
		t.Fatal("greedy preemption never fired")
	}
	if len(got) != steps {
		t.Fatalf("cycles produced %d total steps, want %d", len(got), steps)
	}
	for i := range got {
		if got[i] != ref.Energies[i] {
			t.Fatalf("step %d: cycled energies differ from uninterrupted reference", i)
		}
	}
	for i, p := range ref.Final.FinalPos {
		if last.Final.FinalPos[i] != p {
			t.Fatalf("atom %d: final position differs after %d preemption cycles", i, cycles)
		}
	}
}

// TestPreemptAtFinalBoundaryCompletes: a preemption request whose latched
// boundary lands past the last step is a normal completion, not an error.
func TestPreemptAtFinalBoundaryCompletes(t *testing.T) {
	sys := testSystem(48, 24, 37)
	net := netmodel.TCPGigE()
	const steps = 3
	res, err := RunResilient(clusterCfg(2, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{
		Config: Config{
			System:     sys,
			MD:         testMDConfig(),
			Steps:      steps,
			Middleware: MiddlewareMPI,
		},
		CheckpointEvery: 1,
		CheckpointDir:   t.TempDir(),
		OnStep: func(step int, _ StepTiming, _ md.EnergyReport) bool {
			return step == steps-1 // fires at the last boundary: nothing left to cut
		},
	})
	if err != nil {
		t.Fatalf("final-boundary preemption should complete normally, got %v", err)
	}
	if len(res.Energies) != steps {
		t.Fatalf("got %d steps, want %d", len(res.Energies), steps)
	}
}

// TestPreemptValidation: an OnStep asking for preemption on a run without
// a durable directory fails it with a typed ConfigError — there would be
// nowhere to park the run.
func TestPreemptValidation(t *testing.T) {
	sys := testSystem(27, 24, 41)
	net := netmodel.TCPGigE()
	_, err := RunResilient(clusterCfg(2, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{
		Config: Config{
			System: sys, MD: testMDConfig(), Steps: 2, Middleware: MiddlewareMPI,
		},
		OnStep: func(int, StepTiming, md.EnergyReport) bool { return true },
	})
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConfigError, got %v", err)
	}
	if ce.Field != "OnStep" {
		t.Errorf("error names field %q, want OnStep", ce.Field)
	}
}
