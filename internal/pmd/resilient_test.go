package pmd

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func TestCrashRecoveryMatchesUninterrupted(t *testing.T) {
	sys := testSystem(64, 24, 7)
	net := netmodel.TCPGigE()
	sc, err := fault.ParseSpec("crash@0.2,rank=2")
	if err != nil {
		t.Fatal(err)
	}

	rcfg := ResilientConfig{
		Config: Config{
			System:     sys,
			MD:         testMDConfig(),
			Steps:      6,
			Middleware: MiddlewareMPI,
		},
		Scenario:        sc,
		CheckpointEvery: 2,
		RestartCost:     5,
	}
	res, err := RunResilient(clusterCfg(4, 1, net), cluster.PentiumIII1GHz(), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("want 1 recovery, got %d", len(res.Recoveries))
	}
	rec := res.Recoveries[0]
	if rec.CrashedRank != 2 {
		t.Fatalf("crashed rank = %d, want 2", rec.CrashedRank)
	}
	if rec.Checkpoint == nil {
		t.Fatal("recovery has no checkpoint (crash before first snapshot?)")
	}
	if res.Ranks != 3 {
		t.Fatalf("surviving ranks = %d, want 3", res.Ranks)
	}
	if len(res.Energies) != 6 {
		t.Fatalf("merged energies = %d steps, want 6", len(res.Energies))
	}
	if res.LostTotal() <= 0 {
		t.Fatal("crash recovery booked no lost time")
	}

	// An uninterrupted run on the survivor cluster from the same
	// checkpoint must reproduce the post-rewind trajectory exactly.
	ref, err := Run(clusterCfg(3, 1, net), cluster.PentiumIII1GHz(), Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      6 - rec.RewindStep,
		Middleware: MiddlewareMPI,
		Init:       rec.Checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Energies[rec.RewindStep:]
	if len(got) != len(ref.Energies) {
		t.Fatalf("post-rewind steps: got %d, ref %d", len(got), len(ref.Energies))
	}
	for i := range got {
		if d := math.Abs(got[i].Total() - ref.Energies[i].Total()); d > 1e-9 {
			t.Fatalf("step %d: recovered total energy differs from uninterrupted by %g kcal/mol", i, d)
		}
	}
	for i, p := range ref.FinalPos {
		if p != res.Final.FinalPos[i] {
			t.Fatalf("atom %d: final position differs from uninterrupted reference", i)
		}
	}
}

// TestRunStepGaugeCountsGlobalSteps: rank 0 publishes the 1-based global
// step in progress, so after a crash and a rewind the resumed attempt
// counts on from its checkpoint and the gauge ends at Steps.
func TestRunStepGaugeCountsGlobalSteps(t *testing.T) {
	sc, err := fault.ParseSpec("crash@0.2,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := RunResilient(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), ResilientConfig{
		Config:          Config{System: testSystem(64, 24, 7), MD: testMDConfig(), Steps: 6, Obs: reg},
		Scenario:        sc,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].RewindStep == 0 {
		t.Fatalf("want one rewind to a checkpoint past step 0, got %+v", res.Recoveries)
	}
	if got := reg.Value("repro_run_step"); got != 6 {
		t.Fatalf("repro_run_step = %g after the run, want 6", got)
	}
}

func TestResilientRunDeterministic(t *testing.T) {
	sys := testSystem(48, 24, 9)
	net := netmodel.TCPGigE()
	sc, err := fault.ParseSpec("crash@0.1,rank=1;straggler@0:2,node=0,slow=2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *ResilientResult {
		res, err := RunResilient(clusterCfg(3, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{
			Config: Config{
				System:     sys,
				MD:         testMDConfig(),
				Steps:      4,
				Middleware: MiddlewareMPI,
			},
			Scenario:        sc,
			CheckpointEvery: 1,
			RestartCost:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Recoveries) != 1 {
		t.Fatalf("want 1 recovery, got %d", len(a.Recoveries))
	}
	if a.Wall != b.Wall {
		t.Fatalf("wall differs across identical runs: %v vs %v", a.Wall, b.Wall)
	}
	if len(a.Energies) != len(b.Energies) {
		t.Fatalf("energy count differs: %d vs %d", len(a.Energies), len(b.Energies))
	}
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			t.Fatalf("step %d energies differ across identical runs", i)
		}
	}
	for i := range a.Acct {
		if a.Acct[i] != b.Acct[i] {
			t.Fatalf("rank %d accounting differs across identical runs", i)
		}
	}
}

func TestStragglerSlowsRun(t *testing.T) {
	sys := testSystem(48, 24, 9)
	net := netmodel.TCPGigE()
	healthy, err := RunResilient(clusterCfg(3, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{
		Config: Config{System: sys, MD: testMDConfig(), Steps: 3, Middleware: MiddlewareMPI},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.ParseSpec("straggler@0,node=1,slow=4")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunResilient(clusterCfg(3, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{
		Config:   Config{System: sys, MD: testMDConfig(), Steps: 3, Middleware: MiddlewareMPI},
		Scenario: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Wall <= healthy.Wall {
		t.Fatalf("straggler run (%.4f s) not slower than healthy (%.4f s)", slow.Wall, healthy.Wall)
	}
	// Physics must be unaffected: degradation changes timing, not numbers.
	for i := range healthy.Energies {
		if healthy.Energies[i] != slow.Energies[i] {
			t.Fatalf("step %d: straggler changed the physics", i)
		}
	}
}

func TestLinkDegradeSlowsRun(t *testing.T) {
	sys := testSystem(48, 24, 9)
	net := netmodel.TCPGigE()
	base := Config{System: sys, MD: testMDConfig(), Steps: 3, Middleware: MiddlewareCMPI}
	healthy, err := RunResilient(clusterCfg(3, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{Config: base})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.ParseSpec("link@0,bw=8,lat=6")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunResilient(clusterCfg(3, 1, net), cluster.PentiumIII1GHz(), ResilientConfig{Config: base, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Wall <= healthy.Wall {
		t.Fatalf("degraded-link run (%.4f s) not slower than healthy (%.4f s)", slow.Wall, healthy.Wall)
	}
}

func TestWatchdogPreventsDeadlockOnCrash(t *testing.T) {
	// A crash with no recovery driver: plain Run under a fault model with
	// a watchdog must end in a typed error, never a sim deadlock.
	sys := testSystem(32, 24, 3)
	sc, err := fault.ParseSpec("crash@0.2,rank=1")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(sc, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      5,
		Middleware: MiddlewareMPI,
		Faults:     inj,
		Watchdog:   mpi.Watchdog{Timeout: 1, Retries: 1, Backoff: 2},
	})
	if err == nil {
		t.Fatal("crashed run reported success")
	}
	if !errors.Is(err, mpi.ErrCrashed) {
		t.Fatalf("want ErrCrashed, got: %v", err)
	}
	var ce *mpi.CrashError
	if !errors.As(err, &ce) || ce.Rank != 1 {
		t.Fatalf("crash error lacks rank attribution: %v", err)
	}
}
