package cluster

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/work"
)

func machine(nodes, cpus int) *Machine {
	return New(sim.NewEnv(), Config{Nodes: nodes, CPUsPerNode: cpus, Net: netmodel.TCPGigE(), Seed: 1})
}

func TestRankPlacement(t *testing.T) {
	m := machine(4, 2)
	if m.Ranks() != 8 {
		t.Fatalf("ranks = %d", m.Ranks())
	}
	if m.NodeOf(0) != m.NodeOf(1) {
		t.Fatal("ranks 0,1 should share node 0")
	}
	if m.NodeOf(1) == m.NodeOf(2) {
		t.Fatal("ranks 1,2 should be on different nodes")
	}
	if m.NodeOf(6) != m.NodeOf(7) || m.NodeOf(5) == m.NodeOf(6) {
		t.Fatal("ranks 6,7 should share node 3, apart from rank 5")
	}
	uni := machine(4, 1)
	for r := 0; r < 4; r++ {
		if uni.NodeOf(r).ID != r {
			t.Fatalf("uni rank %d on node %d", r, uni.NodeOf(r).ID)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Nodes: 0, CPUsPerNode: 1, Net: netmodel.TCPGigE()},
		{Nodes: 2, CPUsPerNode: 3, Net: netmodel.TCPGigE()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", bad)
				}
			}()
			New(sim.NewEnv(), bad)
		}()
	}
}

func TestStallDelayThreshold(t *testing.T) {
	m := machine(8, 1)
	m.ActiveFlows = 1 // at or below threshold: never stalls
	for i := 0; i < 1000; i++ {
		if m.StallDelay() != 0 {
			t.Fatal("stall below flow threshold")
		}
	}
	m.ActiveFlows = 8
	stalls := 0
	var total float64
	for i := 0; i < 5000; i++ {
		if d := m.StallDelay(); d > 0 {
			stalls++
			total += d
		}
	}
	if stalls == 0 {
		t.Fatal("no stalls under congestion")
	}
	mean := total / float64(stalls)
	if mean < 0.5e-3 || mean > 10e-3 {
		t.Fatalf("stall mean %g s implausible", mean)
	}
	// SCore never stalls.
	sc := New(sim.NewEnv(), Config{Nodes: 8, CPUsPerNode: 1, Net: netmodel.SCoreGigE(), Seed: 1})
	sc.ActiveFlows = 8
	for i := 0; i < 1000; i++ {
		if sc.StallDelay() != 0 {
			t.Fatal("SCore stalled")
		}
	}
}

func TestStallDeterministicPerSeed(t *testing.T) {
	draw := func() []float64 {
		m := machine(8, 1)
		m.ActiveFlows = 6
		var out []float64
		for i := 0; i < 100; i++ {
			out = append(out, m.StallDelay())
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stall draws differ between identical configs")
		}
	}
}

func TestCostModelSeconds(t *testing.T) {
	cm := PentiumIII1GHz()
	if cm.Seconds(work.Counters{}) != 0 {
		t.Fatal("zero work should cost zero")
	}
	w := work.Counters{PairEvals: 1000, FFTOps: 1000}
	want := 1000*cm.PairEval + 1000*cm.FFTOp
	if got := cm.Seconds(w); got != want {
		t.Fatalf("Seconds = %g, want %g", got, want)
	}
	// Additivity.
	w2 := work.Counters{BondTerms: 5, GridCharges: 7}
	sum := work.Counters{PairEvals: 1000, FFTOps: 1000, BondTerms: 5, GridCharges: 7}
	if cm.Seconds(sum) != cm.Seconds(w)+cm.Seconds(w2) {
		t.Fatal("cost not additive")
	}
}

// TestCalibrationAnchors pins the calibrated sequential split near the
// paper's Fig. 3 (classic ≈ 3.3 s, PME ≈ 2.8 s per 10 steps). The counter
// values were measured on a sequential run of the 3552-atom workload.
func TestCalibrationAnchors(t *testing.T) {
	cm := PentiumIII1GHz()
	classic := work.Counters{
		BondTerms: 35332, AngleTerms: 55165, DihedralTerms: 76769,
		PairEvals: 5230951, ListDistEvals: 28447994, Integrate: 71040,
	}
	pme := work.Counters{
		PairEvals: 90497, GridCharges: 5001216,
		FFTOps: 259573248, RecipPoints: 1520640,
	}
	if s := cm.Seconds(classic); s < 2.5 || s > 4.5 {
		t.Fatalf("classic calibration drifted: %g s (paper ≈ 3.4)", s)
	}
	if s := cm.Seconds(pme); s < 2.0 || s > 3.6 {
		t.Fatalf("PME calibration drifted: %g s (paper ≈ 2.8)", s)
	}
}
