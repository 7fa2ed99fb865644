package chaos

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

func testHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(Config{
		Seed:        1,
		Steps:       4,
		Nodes:       3,
		CPUsPerNode: 1,
		Net:         netmodel.TCPGigE(),
		Atoms:       120,
		Workers:     []int{1, 2},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSoakHoldsInvariants(t *testing.T) {
	h := testHarness(t)
	reports, failure, err := h.Soak(4)
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatalf("run %d (seed %d) violated %q: %s\nscenario: %s\nminimal:  %s",
			failure.Index, failure.Seed, failure.Err.Name, failure.Err.Detail,
			failure.Scenario.DSL(), failure.Minimal.DSL())
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(reports))
	}
	for i, r := range reports {
		if r.Index != i || r.Faults < 1 || r.DSL == "" {
			t.Errorf("report %d malformed: %+v", i, r)
		}
	}
}

// TestSoakLocalizedRecovery runs the soak on the domain decomposition
// with localized epoch replay, which arms the extra recovery-fidelity
// invariant: every faulted run must match the fault-free trajectory
// bitwise because the cluster never shrinks.
func TestSoakLocalizedRecovery(t *testing.T) {
	h, err := NewHarness(Config{
		Seed:        5,
		Steps:       3,
		Nodes:       4,
		CPUsPerNode: 1,
		Net:         netmodel.TCPGigE(),
		Decomp:      pmd.DecompDomain,
		Recovery:    pmd.RecoveryLocal,
		Atoms:       120,
		Workers:     []int{1, 2},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, failure, err := h.Soak(3)
	if err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatalf("run %d (seed %d) violated %q: %s\nscenario: %s\nminimal:  %s",
			failure.Index, failure.Seed, failure.Err.Name, failure.Err.Detail,
			failure.Scenario.DSL(), failure.Minimal.DSL())
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
}

func TestSoakLocalizedNeedsDomain(t *testing.T) {
	_, err := NewHarness(Config{Seed: 1, Recovery: pmd.RecoveryLocal})
	if err == nil {
		t.Fatal("localized recovery on the replicated decomposition was accepted")
	}
}

// An untileable rank count comes back as the bare *pmd.DecompError (the
// commands print it as a usage error), not wrapped as a failed probe run.
func TestHarnessRejectsUntileableRanks(t *testing.T) {
	_, err := NewHarness(Config{Seed: 1, Nodes: 100})
	if de, ok := err.(*pmd.DecompError); !ok || de.Ranks != 100 {
		t.Fatalf("100 ranks on the 300-atom mesh: got %v, want a *pmd.DecompError", err)
	}
}

func TestScenarioSeedsDiffer(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		s := ScenarioSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at run %d", i)
		}
		seen[s] = true
	}
	if ScenarioSeed(1, 0) == ScenarioSeed(2, 0) {
		t.Error("base seed does not influence the stream")
	}
}

// TestShrinkFindsMinimalReproducer drives the shrinker with a synthetic
// "invariant" — an intentionally broken predicate that fails whenever a
// node-1 straggler is present — and expects the four-fault scenario to
// shrink to exactly that one spec, simplified.
func TestShrinkFindsMinimalReproducer(t *testing.T) {
	sc, err := fault.ParseSpec(
		"link@0:60,bw=8;straggler@5:25,node=1,slow=4;flap@10,node=0,dur=0.5,count=3,period=20;crash@12,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	brokenInvariant := func(c *fault.Scenario) bool {
		for _, f := range c.Faults {
			if f.Kind == fault.KindStraggler && f.Node == 1 {
				return true
			}
		}
		return false
	}
	min := Shrink(sc, brokenInvariant)
	if len(min.Faults) != 1 {
		t.Fatalf("shrunk to %d faults, want 1: %s", len(min.Faults), min.DSL())
	}
	f := min.Faults[0]
	if f.Kind != fault.KindStraggler || f.Node != 1 {
		t.Fatalf("wrong surviving fault: %s", min.DSL())
	}
	// Pass 2 simplifications: the window closes (End -> 0). The node
	// cannot be dropped — the predicate needs node 1 — which shows the
	// shrinker keeps load-bearing fields.
	if f.End != 0 {
		t.Errorf("window not simplified: %s", min.DSL())
	}
	if !brokenInvariant(min) {
		t.Error("shrunk scenario no longer fails the predicate")
	}
	// The original scenario is untouched.
	if len(sc.Faults) != 4 {
		t.Errorf("Shrink mutated its input: %s", sc.DSL())
	}
	// And the reproducer replays through the DSL.
	if _, err := fault.ParseSpec(min.DSL()); err != nil {
		t.Errorf("minimal DSL %q does not parse: %v", min.DSL(), err)
	}
}

// TestShrinkSimplifiesFlap: a repeated flap shrinks to a single
// occurrence when repetition is not load-bearing.
func TestShrinkSimplifiesFlap(t *testing.T) {
	sc, err := fault.ParseSpec("flap@10,node=0,dur=0.5,count=3,period=20;crash@12,rank=1")
	if err != nil {
		t.Fatal(err)
	}
	min := Shrink(sc, func(c *fault.Scenario) bool {
		for _, f := range c.Faults {
			if f.Kind == fault.KindFlap {
				return true
			}
		}
		return false
	})
	if len(min.Faults) != 1 || min.Faults[0].Kind != fault.KindFlap {
		t.Fatalf("shrunk to %s", min.DSL())
	}
	if min.Faults[0].Count != 1 || min.Faults[0].Period != 0 {
		t.Errorf("flap repetition not simplified: %s", min.DSL())
	}
	if !strings.Contains(min.DSL(), "flap@10,node=0,dur=0.5") {
		t.Errorf("unexpected minimal DSL %q", min.DSL())
	}
}

// TestSoakCatchesBrokenInvariant wires a deliberately broken check
// through the full Soak + Shrink pipeline: scenarios whose runs recover a
// crash are declared "failures", and the machinery must shrink the first
// such scenario down to its crash spec alone.
func TestSoakCatchesBrokenInvariant(t *testing.T) {
	h := testHarness(t)

	// Find a soak seed whose scenario contains a crash.
	var sc *fault.Scenario
	for i := 0; i < 50; i++ {
		cand := fault.RandomScenario(ScenarioSeed(1, i), h.Horizon(), 3, 1)
		if len(cand.CrashSpecs()) == 1 && len(cand.Faults) > 1 {
			sc = cand
			break
		}
	}
	if sc == nil {
		t.Fatal("no multi-fault crash scenario in the first 50 seeds")
	}

	brokenCheck := func(c *fault.Scenario) bool {
		res, err := h.run(c, h.cfg.Workers[0], "", 0)
		return err == nil && len(res.Recoveries) > 0
	}
	if !brokenCheck(sc) {
		t.Skip("crash fires after this workload's horizon; scenario recovers nothing")
	}
	min := Shrink(sc, brokenCheck)
	if len(min.Faults) != 1 || min.Faults[0].Kind != fault.KindCrash {
		t.Fatalf("want the lone crash spec, got %q (from %q)", min.DSL(), sc.DSL())
	}
}
