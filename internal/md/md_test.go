package md

import (
	"math"
	"testing"

	"repro/internal/ff"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/units"
	"repro/internal/vec"
	"repro/internal/work"
)

// waterBox builds a small box of nw waters on a jittered grid.
func waterBox(nw int, l float64, seed uint64) *topol.System {
	s := &topol.System{
		Box:   space.NewBox(l, l, l),
		Types: topol.StandardTypes(),
	}
	r := rng.New(seed)
	side := int(math.Ceil(math.Cbrt(float64(nw))))
	spacing := l / float64(side)
	placed := 0
	for ix := 0; ix < side && placed < nw; ix++ {
		for iy := 0; iy < side && placed < nw; iy++ {
			for iz := 0; iz < side && placed < nw; iz++ {
				base := vec.New(
					(float64(ix)+0.5)*spacing+r.Range(-0.2, 0.2),
					(float64(iy)+0.5)*spacing+r.Range(-0.2, 0.2),
					(float64(iz)+0.5)*spacing+r.Range(-0.2, 0.2),
				)
				res := int32(len(s.Residues))
				s.Residues = append(s.Residues, topol.Residue{Name: "TIP3", First: int32(len(s.Atoms))})
				add := func(name string, typ int32, q float64, p vec.V) int32 {
					i := int32(len(s.Atoms))
					s.Atoms = append(s.Atoms, topol.Atom{Name: name, Type: typ, Charge: q, Residue: res})
					s.Pos = append(s.Pos, s.Box.Wrap(p))
					return i
				}
				ow := add("OW", topol.TypeOW, -0.834, base)
				h1 := add("HW1", topol.TypeHW, 0.417, base.Add(vec.New(0.76, 0.59, 0)))
				h2 := add("HW2", topol.TypeHW, 0.417, base.Add(vec.New(-0.76, 0.59, 0)))
				s.Bonds = append(s.Bonds, [2]int32{ow, h1}, [2]int32{ow, h2})
				s.Residues[res].Last = int32(len(s.Atoms))
				placed++
			}
		}
	}
	s.DeriveConnectivity()
	return s
}

// smallCutoffs shrinks the nonbonded ranges so the 12 Å test boxes satisfy
// the minimum-image constraint (max cutoff = 6 Å).
func smallCutoffs(cfg Config) Config {
	cfg.FF.CutOn, cfg.FF.CutOff, cfg.FF.ListCutoff = 3.5, 4.5, 5.5
	return cfg
}

func TestEngineEnergyDeterministic(t *testing.T) {
	sys := waterBox(27, 12, 1)
	a := NewEngine(sys, smallCutoffs(DefaultConfig()))
	b := NewEngine(sys, smallCutoffs(DefaultConfig()))
	ra := a.Run(5, nil, nil)
	rb := b.Run(5, nil, nil)
	for i := range ra {
		if ra[i].Total() != rb[i].Total() {
			t.Fatalf("step %d: %g != %g", i, ra[i].Total(), rb[i].Total())
		}
	}
}

func TestMinimizeLowersEnergy(t *testing.T) {
	sys := waterBox(27, 12, 2)
	cfg := smallCutoffs(DefaultConfig())
	cfg.Temperature = 0
	e := NewEngine(sys, cfg)
	before := e.ComputeForces(nil, nil).Potential()
	after := e.Minimize(150, 0.2)
	if after >= before {
		t.Fatalf("minimization did not lower energy: %g -> %g", before, after)
	}
}

func TestEnergyConservationClassic(t *testing.T) {
	sys := waterBox(27, 12, 3)
	cfg := smallCutoffs(DefaultConfig())
	cfg.Temperature = 0
	cfg.TimestepFS = 0.5
	e := NewEngine(sys, cfg)
	e.Minimize(300, 0.2)
	e.InitVelocities(150, 7)

	reports := e.Run(400, nil, nil)
	first := reports[5].Total() // skip the very first steps (list settling)
	var maxDrift float64
	for _, r := range reports[5:] {
		if d := math.Abs(r.Total() - first); d > maxDrift {
			maxDrift = d
		}
	}
	// Energy scale: kinetic at 150 K for 81 atoms ≈ 36 kcal/mol. Demand
	// drift well under 5% of that.
	if maxDrift > 1.5 {
		t.Fatalf("NVE energy drift %g kcal/mol over 400 steps", maxDrift)
	}
}

func TestEnergyConservationPME(t *testing.T) {
	sys := waterBox(27, 12, 4)
	cfg := smallCutoffs(PMEDefaultConfig())
	cfg.Temperature = 0
	cfg.TimestepFS = 0.5
	// β large enough that erfc at the 4.5 Å cutoff is ~1e-5 — otherwise the
	// truncation step destroys NVE conservation.
	cfg.PME = PMEConfig{Beta: 0.7, K1: 24, K2: 24, K3: 24, Order: 4}
	e := NewEngine(sys, cfg)
	e.Minimize(300, 0.2)
	e.InitVelocities(150, 9)

	reports := e.Run(300, nil, nil)
	first := reports[5].Total()
	var maxDrift float64
	for _, r := range reports[5:] {
		if d := math.Abs(r.Total() - first); d > maxDrift {
			maxDrift = d
		}
	}
	if maxDrift > 2.0 {
		t.Fatalf("PME NVE energy drift %g kcal/mol over 300 steps", maxDrift)
	}
}

func TestVelocityInitialization(t *testing.T) {
	sys := waterBox(64, 16, 5)
	cfg := smallCutoffs(DefaultConfig())
	cfg.Temperature = 300
	e := NewEngine(sys, cfg)
	// Net momentum removed.
	var p vec.V
	for i, v := range e.Vel {
		p = p.Add(v.Scale(sys.Mass(i)))
	}
	if p.Norm() > 1e-9 {
		t.Fatalf("net momentum %v", p)
	}
	// Temperature in the right ballpark (finite sample).
	if tK := units.KineticTemperature(e.KineticEnergy(), e.DegreesOfFreedom()); tK < 200 || tK > 400 {
		t.Fatalf("initial temperature %g K", tK)
	}
}

func TestListReuseAndRebuild(t *testing.T) {
	sys := waterBox(27, 12, 6)
	cfg := smallCutoffs(DefaultConfig())
	cfg.Temperature = 0
	e := NewEngine(sys, cfg)
	e.ComputeForces(nil, nil)
	if !e.ListWasRebuilt() {
		t.Fatal("first evaluation must build the list")
	}
	e.ComputeForces(nil, nil)
	if e.ListWasRebuilt() {
		t.Fatal("static positions must reuse the list")
	}
	// Move one atom beyond half the skin: rebuild required.
	e.Pos[0] = e.Pos[0].Add(vec.New(1.5, 0, 0))
	e.ComputeForces(nil, nil)
	if !e.ListWasRebuilt() {
		t.Fatal("large displacement must rebuild the list")
	}
}

// TestListReuseConsistency verifies that reusing the skin list yields the
// same forces as a fresh build while displacements stay under the skin.
func TestListReuseConsistency(t *testing.T) {
	sys := waterBox(27, 12, 7)
	cfg := smallCutoffs(DefaultConfig())
	cfg.Temperature = 0
	a := NewEngine(sys, cfg)
	a.ComputeForces(nil, nil)
	// Small displacement, then evaluate with the reused list.
	for i := range a.Pos {
		a.Pos[i] = a.Pos[i].Add(vec.New(0.05, -0.03, 0.02))
	}
	repA := a.ComputeForces(nil, nil)
	if a.ListWasRebuilt() {
		t.Fatal("list should have been reused")
	}
	// Fresh engine at the same positions: fresh list.
	b := NewEngine(sys, cfg)
	copy(b.Pos, a.Pos)
	repB := b.ComputeForces(nil, nil)
	if math.Abs(repA.Potential()-repB.Potential()) > 1e-9 {
		t.Fatalf("reused list energy %g vs fresh %g", repA.Potential(), repB.Potential())
	}
	if d := vec.MaxNormDiff(a.Frc, b.Frc); d > 1e-9 {
		t.Fatalf("force mismatch %g between reused and fresh list", d)
	}
}

func TestWorkCountersSplit(t *testing.T) {
	sys := waterBox(27, 12, 8)
	cfg := smallCutoffs(PMEDefaultConfig())
	cfg.PME = PMEConfig{Beta: 0.45, K1: 24, K2: 24, K3: 24, Order: 4}
	e := NewEngine(sys, cfg)
	var wc, wp work.Counters
	e.Run(3, &wc, &wp)
	if wc.PairEvals == 0 || wc.BondTerms == 0 || wc.Integrate == 0 {
		t.Fatalf("classic work missing: %+v", wc)
	}
	if wp.FFTOps == 0 || wp.GridCharges == 0 {
		t.Fatalf("PME work missing: %+v", wp)
	}
	if wc.FFTOps != 0 {
		t.Fatal("FFT work booked to the classic phase")
	}
}

func TestEnergyReportArithmetic(t *testing.T) {
	r := EnergyReport{
		FF:    ff.Energies{Bond: 1, LJ: 2},
		Recip: 3, Self: -1, ExclCorr: -0.5, Background: 0,
		Kinetic: 4,
	}
	if r.Classic() != 3 {
		t.Fatalf("Classic = %g", r.Classic())
	}
	if r.PME() != 1.5 {
		t.Fatalf("PME = %g", r.PME())
	}
	if r.Potential() != 4.5 || r.Total() != 8.5 {
		t.Fatalf("Potential/Total = %g/%g", r.Potential(), r.Total())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	sys := waterBox(8, 10, 9)
	bad := smallCutoffs(DefaultConfig())
	bad.TimestepFS = 0
	defer func() {
		if recover() == nil {
			t.Error("zero timestep did not panic")
		}
	}()
	NewEngine(sys, bad)
}

// TestEwaldSumIndependentOfBeta: the Ewald split moves Coulomb energy
// between the direct and reciprocal sums but not the total, so setting
// cfg.PME.Beta alone must retune both halves. A direct-space term left at
// another β (the paper's 0.34) puts the two totals 2 % apart here.
func TestEwaldSumIndependentOfBeta(t *testing.T) {
	sys := waterBox(27, 12, 12)
	coulomb := func(beta float64) float64 {
		cfg := PMEDefaultConfig()
		cfg.FF.CutOn, cfg.FF.CutOff, cfg.FF.ListCutoff = 4.5, 5.5, 6.0
		cfg.Temperature = 0
		cfg.PME = PMEConfig{Beta: beta, K1: 32, K2: 32, K3: 32, Order: 4}
		r := NewEngine(sys, cfg).ComputeForces(nil, nil)
		return r.FF.Elec + r.FF.Elec14 + r.PME()
	}
	a, b := coulomb(0.60), coulomb(0.65)
	if rel := math.Abs(a-b) / math.Abs(a); rel > 5e-3 {
		t.Fatalf("Coulomb total %g at β 0.60 vs %g at β 0.65 (rel %.2g)", a, b, rel)
	}
}

func TestMyoglobinTenStepsRuns(t *testing.T) {
	// The paper's measurement workload: 10 MD steps of the 3552-atom
	// system with PME. This is the exact computation whose performance is
	// characterized; here we check it executes and produces finite physics.
	if testing.Short() {
		t.Skip("full-system run in -short mode")
	}
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	cfg := PMEDefaultConfig()
	cfg.Temperature = 0 // strained start: heat later
	e := NewEngine(sys, cfg)
	e.Minimize(30, 0.1)
	e.InitVelocities(50, 3)
	var wc, wp work.Counters
	reports := e.Run(10, &wc, &wp)
	for i, r := range reports {
		if math.IsNaN(r.Total()) || math.IsInf(r.Total(), 0) {
			t.Fatalf("step %d: non-finite energy", i)
		}
	}
	if wp.FFTOps == 0 || wc.PairEvals == 0 {
		t.Fatal("missing work counts")
	}
	// Workload sanity: the classic pair work must dominate grid spread ops
	// the way the paper's profile shows (same order of magnitude).
	if wc.PairEvals < 1e6 {
		t.Fatalf("pair evals over 10 steps = %d, implausibly small", wc.PairEvals)
	}
}
