package pmd

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/topol"
)

// domainCfg builds a domain-decomposition run config over the shared test
// fixture.
func domainCfg(sys *topol.System, steps int) Config {
	return Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      steps,
		Middleware: MiddlewareMPI,
		Decomp:     DecompDomain,
	}
}

func crashSpec(t *testing.T, at float64, rank int) *fault.Scenario {
	t.Helper()
	sc, err := fault.ParseSpec(fmt.Sprintf("crash@%g,rank=%d", at, rank))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func sameTrajectory(t *testing.T, label string, energies []md.EnergyReport, ref *Result, final *Result) {
	t.Helper()
	if len(energies) != len(ref.Energies) {
		t.Fatalf("%s: %d energy steps, reference has %d", label, len(energies), len(ref.Energies))
	}
	for i := range energies {
		if energies[i] != ref.Energies[i] {
			t.Fatalf("%s: step %d energies differ from the fault-free reference", label, i)
		}
	}
	for i, p := range ref.FinalPos {
		if final.FinalPos[i] != p {
			t.Fatalf("%s: atom %d final position differs from the fault-free reference", label, i)
		}
	}
}

// TestLocalizedRecoveryBitwiseIdentical is the tentpole acceptance path:
// a rank crash under the domain decomposition is repaired from the newest
// completed rebuild epoch without dropping the node, and the full faulted
// trajectory is bitwise-identical to the fault-free run — something the
// global rewind (which shrinks the cluster and re-tiles the grid) cannot
// deliver.
func TestLocalizedRecoveryBitwiseIdentical(t *testing.T) {
	sys := testSystem(64, 24, 7)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(8, 1, net)
	const steps = 6

	healthy, err := Run(cl, cost, domainCfg(sys, steps))
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunResilient(cl, cost, ResilientConfig{
		Config:          domainCfg(sys, steps),
		Scenario:        crashSpec(t, 0.45*healthy.Wall, 3),
		CheckpointEvery: 2,
		RestartCost:     5,
		Recovery:        RecoveryLocal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != 8 {
		t.Fatalf("surviving ranks = %d, want 8 (localized recovery keeps the cluster whole)", res.Ranks)
	}
	if len(res.Local) != 1 || len(res.Recoveries) != 1 {
		t.Fatalf("want exactly one localized recovery, got %d local / %d total", len(res.Local), len(res.Recoveries))
	}
	ev := res.Local[0]
	if ev.Rank != 3 {
		t.Fatalf("recovered rank = %d, want 3", ev.Rank)
	}
	if ev.EpochStep > ev.ResumeStep || ev.ReplaySteps < 0 {
		t.Fatalf("restored epoch step %d, resume step %d, %d replay steps", ev.EpochStep, ev.ResumeStep, ev.ReplaySteps)
	}
	if res.Breakdown.Rewind != 0 {
		t.Fatalf("localized recovery booked %g s of global rewind", res.Breakdown.Rewind)
	}
	if res.Breakdown.Replay+res.Breakdown.Park <= 0 {
		t.Fatal("localized recovery booked no replay/park time")
	}
	// LostTotal sums per rank; the breakdown sums the same terms grouped
	// by bucket. Float addition is not associative across the regrouping,
	// so the cross-check allows rounding at the last few bits.
	if got, want := res.LostTotal(), res.Breakdown.Total(); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("Lost bucket %g disagrees with breakdown total %g", got, want)
	}
	sameTrajectory(t, "localized", res.Energies, healthy, res.Final)
}

// TestLocalizedRecoveryMidMigration kills a rank inside a neighbour-list
// rebuild step — atoms in flight between domains — and demands bitwise
// recovery. The restore point must be the newest epoch the crashed rank
// is known to have completed, not the rebuild the crash interrupted.
func TestLocalizedRecoveryMidMigration(t *testing.T) {
	sys := testSystem(64, 24, 13)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(8, 1, net)
	const steps = 6

	// A razor-thin skin forces a rebuild (and migration) almost every
	// step, so a mid-step crash lands inside the migration window.
	cfg := domainCfg(sys, steps)
	cfg.MD.FF.ListCutoff = cfg.MD.FF.CutOff + 0.1

	// Probe the healthy run, recording when each step completes and which
	// steps began a rebuild epoch.
	stepEnd := make([]float64, steps)
	var gens []int
	probe := cfg
	probe.onStep = func(w *worker, step int) {
		if t := w.r.Now(); t > stepEnd[step] {
			stepEnd[step] = t
		}
		if w.me() == 0 {
			gens = append(gens, w.listGen)
		}
	}
	healthy, err := Run(cl, cost, probe)
	if err != nil {
		t.Fatal(err)
	}

	rebuild := -1
	for s := 2; s < steps; s++ {
		if gens[s] > gens[s-1] {
			rebuild = s
			break
		}
	}
	if rebuild < 0 {
		t.Fatal("thin skin produced no rebuild epoch to crash into; tighten the fixture")
	}

	// Crash in the middle of the rebuild step.
	at := (stepEnd[rebuild-1] + stepEnd[rebuild]) / 2
	res, err := RunResilient(cl, cost, ResilientConfig{
		Config:          cfg,
		Scenario:        crashSpec(t, at, 5),
		CheckpointEvery: 3,
		RestartCost:     5,
		Recovery:        RecoveryLocal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Local) != 1 {
		t.Fatalf("want exactly one localized recovery, got %d", len(res.Local))
	}
	ev := res.Local[0]
	if ev.EpochStep > ev.ResumeStep {
		t.Fatalf("restored epoch step %d is past the resume step %d (restored a mid-migration mirror?)",
			ev.EpochStep, ev.ResumeStep)
	}
	sameTrajectory(t, "mid-migration", res.Energies, healthy, res.Final)
}

// TestLocalizedRecoveryPreemptRace runs the CheckpointRing, a localized
// repair and a graceful preemption in the same run: a crash is
// repaired locally, the Preempt hook parks the run at the next boundary,
// and the resumed run stitches bitwise into the fault-free trajectory.
func TestLocalizedRecoveryPreemptRace(t *testing.T) {
	sys := testSystem(64, 24, 17)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(8, 1, net)
	const steps = 7

	healthy, err := Run(cl, cost, domainCfg(sys, steps))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mk := func(preempt func() bool, scenario *fault.Scenario) ResilientConfig {
		return ResilientConfig{
			Config:          domainCfg(sys, steps),
			Scenario:        scenario,
			CheckpointEvery: 2,
			RestartCost:     5,
			CheckpointDir:   dir,
			Recovery:        RecoveryLocal,
			Preempt:         preempt,
		}
	}

	// Crash early, then request preemption on a boundary the recovery has
	// already passed: the park must checkpoint post-recovery state.
	sc := crashSpec(t, 0.1*healthy.Wall, 2)
	polls := 0
	parked, err := RunResilient(cl, cost, mk(func() bool {
		polls++
		return polls >= 4
	}, sc))
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("want ErrPreempted, got %v", err)
	}
	if len(parked.Recoveries) != 1 {
		t.Fatalf("parked run recovered %d crashes, want 1 before the park", len(parked.Recoveries))
	}
	if len(parked.Energies) >= steps {
		t.Fatalf("parked run completed all %d steps; preemption never fired", steps)
	}

	resumed, err := RunResilient(cl, cost, mk(nil, sc))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == nil {
		t.Fatal("restart ignored the parked checkpoint")
	}
	if resumed.Resumed.LostOnDisk != 0 {
		t.Fatalf("graceful preemption lost %g virtual seconds on disk, want 0", resumed.Resumed.LostOnDisk)
	}
	if len(resumed.Recoveries) != 0 {
		t.Fatal("resumed run replayed the already-consumed crash")
	}
	stitched := append(append([]md.EnergyReport{}, parked.Energies...), resumed.Energies...)
	sameTrajectory(t, "preempt race", stitched, healthy, resumed.Final)
}

// TestCheckpointTunerPinnedReplay covers the Young/Daly acceptance
// criteria: with zero failures the configured cadence is untouched; with
// observed crashes the tuned interval is recorded and a replay pinned to
// that interval is bitwise-identical.
func TestCheckpointTunerPinnedReplay(t *testing.T) {
	sys := testSystem(64, 24, 19)
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(8, 1, net)
	const steps = 6

	healthy, err := Run(cl, cost, domainCfg(sys, steps))
	if err != nil {
		t.Fatal(err)
	}

	// Zero failures: tuner armed but silent.
	quiet, err := RunResilient(cl, cost, ResilientConfig{
		Config:          domainCfg(sys, steps),
		CheckpointEvery: 3,
		RestartCost:     5,
		Recovery:        RecoveryLocal,
		TuneCheckpoint:  true,
		CheckpointCost:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.CheckpointInterval != 3 || quiet.IntervalTuned {
		t.Fatalf("zero-failure run reports interval %d (tuned=%v), want the configured 3 (tuned=false)",
			quiet.CheckpointInterval, quiet.IntervalTuned)
	}
	sameTrajectory(t, "tuner, zero failures", quiet.Energies, healthy, quiet.Final)

	// Two crashes: the tuner re-derives the cadence online.
	// The first crash must land after at least one globally completed
	// step: the tuner's step-cost sample needs completed work behind it
	// (the fixture's step 0 is dominated by the initial list build).
	sc, err := fault.ParseSpec(fmt.Sprintf("crash@%g,rank=2;crash@%g,rank=6",
		0.55*healthy.Wall, 0.85*healthy.Wall))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(every int, tune bool) ResilientConfig {
		return ResilientConfig{
			Config:          domainCfg(sys, steps),
			Scenario:        sc,
			CheckpointEvery: every,
			RestartCost:     5,
			Recovery:        RecoveryLocal,
			TuneCheckpoint:  tune,
			CheckpointCost:  2,
		}
	}
	tuned, err := RunResilient(cl, cost, mk(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuned.Recoveries) != 2 {
		t.Fatalf("tuned run recovered %d crashes, want 2", len(tuned.Recoveries))
	}
	if !tuned.IntervalTuned {
		t.Fatal("two observed failures left the tuner silent")
	}
	if tuned.CheckpointInterval < 1 || tuned.CheckpointInterval > steps {
		t.Fatalf("tuned interval %d outside [1, %d]", tuned.CheckpointInterval, steps)
	}
	sameTrajectory(t, "tuned", tuned.Energies, healthy, tuned.Final)

	// Pinned replay: the tuned interval as a fixed cadence reproduces the
	// trajectory bit for bit.
	pinned, err := RunResilient(cl, cost, mk(tuned.CheckpointInterval, false))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.IntervalTuned || pinned.CheckpointInterval != tuned.CheckpointInterval {
		t.Fatalf("pinned replay reports interval %d (tuned=%v)", pinned.CheckpointInterval, pinned.IntervalTuned)
	}
	sameTrajectory(t, "pinned replay", pinned.Energies, healthy, pinned.Final)
}

// TestRecoveryConfigValidation pins the new knob errors.
func TestRecoveryConfigValidation(t *testing.T) {
	sys := testSystem(8, 18, 3)
	base := Config{System: sys, MD: testMDConfig(), Steps: 1, Middleware: MiddlewareMPI}
	cases := []struct {
		name  string
		rcfg  ResilientConfig
		field string
	}{
		{"local needs domain", ResilientConfig{Config: base, Recovery: RecoveryLocal}, "Recovery"},
		{"tuner needs cost", ResilientConfig{Config: base, TuneCheckpoint: true}, "TuneCheckpoint"},
		{"negative cost", ResilientConfig{Config: base, CheckpointCost: -1}, "CheckpointCost"},
	}
	for _, tc := range cases {
		_, err := RunResilient(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), tc.rcfg)
		var cerr *ConfigError
		if !errors.As(err, &cerr) || cerr.Field != tc.field {
			t.Errorf("%s: got %v, want *ConfigError on %s", tc.name, err, tc.field)
		}
	}
	if _, err := ParseRecovery("local"); err != nil {
		t.Error(err)
	}
	if k, err := ParseRecovery(""); err != nil || k != RecoveryGlobal {
		t.Errorf("ParseRecovery(\"\") = %v, %v", k, err)
	}
	if _, err := ParseRecovery("bogus"); err == nil {
		t.Error("ParseRecovery accepted bogus input")
	}
}
