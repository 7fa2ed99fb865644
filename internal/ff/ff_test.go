package ff

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/units"
	"repro/internal/vec"
	"repro/internal/work"
)

// BuildPairs is the serial list build with a fresh lister: the reference
// the tests hold the kernels and the lane scan to.
func (f *ForceField) BuildPairs(pos []vec.V, w *work.Counters) []space.Pair {
	return f.NewPairLister().Build(pos, w)
}

// smallSystem builds a compact 2-residue-chain-plus-waters system, small
// enough for finite-difference force checks.
func smallSystem(seed uint64) (*topol.System, []vec.V) {
	s := &topol.System{
		Box:   space.NewBox(24, 24, 24),
		Types: topol.StandardTypes(),
	}
	r := rng.New(seed)
	// A short branched chain: N-CA(-HA)(-CB(-HB))-C=O.
	res := int32(0)
	s.Residues = append(s.Residues, topol.Residue{Name: "TST", First: 0})
	add := func(name string, typ int32, q float64, p vec.V) int32 {
		i := int32(len(s.Atoms))
		s.Atoms = append(s.Atoms, topol.Atom{Name: name, Type: typ, Charge: q, Residue: res})
		s.Pos = append(s.Pos, p)
		return i
	}
	n := add("N", topol.TypeN, -0.3, vec.New(10, 10, 10))
	ca := add("CA", topol.TypeCT, 0.1, vec.New(11.4, 10.2, 10.1))
	ha := add("HA", topol.TypeHA, 0.05, vec.New(11.6, 11.0, 10.9))
	cb := add("CB", topol.TypeCT, -0.1, vec.New(12.1, 10.4, 8.8))
	hb := add("HB", topol.TypeHA, 0.05, vec.New(11.9, 9.6, 8.1))
	c := add("C", topol.TypeC, 0.4, vec.New(12.3, 11.3, 11.2))
	o := add("O", topol.TypeO, -0.2, vec.New(12.0, 12.5, 11.4))
	s.Bonds = append(s.Bonds,
		[2]int32{n, ca}, [2]int32{ca, ha}, [2]int32{ca, cb},
		[2]int32{cb, hb}, [2]int32{ca, c}, [2]int32{c, o})
	s.Residues[0].Last = int32(len(s.Atoms))
	// Two waters at random spots a few Å away.
	for wi := 0; wi < 2; wi++ {
		res = int32(len(s.Residues))
		s.Residues = append(s.Residues, topol.Residue{Name: "TIP3", First: int32(len(s.Atoms))})
		base := vec.New(r.Range(4, 20), r.Range(4, 20), r.Range(14, 20))
		ow := add("OW", topol.TypeOW, -0.834, base)
		h1 := add("HW1", topol.TypeHW, 0.417, base.Add(vec.New(0.76, 0.59, 0)))
		h2 := add("HW2", topol.TypeHW, 0.417, base.Add(vec.New(-0.76, 0.59, 0)))
		s.Bonds = append(s.Bonds, [2]int32{ow, h1}, [2]int32{ow, h2})
		s.Residues[len(s.Residues)-1].Last = int32(len(s.Atoms))
	}
	s.DeriveConnectivity()
	s.Impropers = append(s.Impropers, [4]int32{c, ca, o, n}) // planarity at C
	return s, s.Pos
}

// totalEnergy computes all FF terms at pos (fresh list each call, so finite
// differences see a consistent surface as long as no pair crosses the list
// cutoff, which the small displacements below guarantee).
func totalEnergy(f *ForceField, pos []vec.V) float64 {
	frc := make([]vec.V, len(pos))
	pairs := f.BuildPairs(pos, nil)
	e := f.Bonded(pos, frc, nil)
	e.Add(f.Nonbonded(pos, pairs, frc, nil))
	e.Add(f.Pairs14(pos, frc, nil))
	return e.Total()
}

func forces(f *ForceField, pos []vec.V) []vec.V {
	frc := make([]vec.V, len(pos))
	pairs := f.BuildPairs(pos, nil)
	f.Bonded(pos, frc, nil)
	f.Nonbonded(pos, pairs, frc, nil)
	f.Pairs14(pos, frc, nil)
	return frc
}

// checkForcesMatchGradient verifies F = −∇E by central differences.
// netForce sums the forces on every atom.
func netForce(frc []vec.V) vec.V {
	var net vec.V
	for _, f := range frc {
		net = net.Add(f)
	}
	return net
}

func checkForcesMatchGradient(t *testing.T, f *ForceField, pos []vec.V, tol float64) {
	t.Helper()
	frc := forces(f, pos)
	const h = 1e-5
	for i := range pos {
		for dim := 0; dim < 3; dim++ {
			orig := pos[i]
			bump := func(s float64) float64 {
				p := orig
				switch dim {
				case 0:
					p.X += s
				case 1:
					p.Y += s
				case 2:
					p.Z += s
				}
				pos[i] = p
				e := totalEnergy(f, pos)
				pos[i] = orig
				return e
			}
			grad := (bump(h) - bump(-h)) / (2 * h)
			var got float64
			switch dim {
			case 0:
				got = frc[i].X
			case 1:
				got = frc[i].Y
			case 2:
				got = frc[i].Z
			}
			if math.Abs(got+grad) > tol*(1+math.Abs(grad)) {
				t.Fatalf("atom %d dim %d: force %g vs −grad %g", i, dim, got, -grad)
			}
		}
	}
}

func TestForcesMatchGradientShift(t *testing.T) {
	sys, pos := smallSystem(1)
	f := New(sys, DefaultOptions(), 0)
	checkForcesMatchGradient(t, f, pos, 2e-5)
}

func TestForcesMatchGradientEwaldDirect(t *testing.T) {
	sys, pos := smallSystem(2)
	f := New(sys, DefaultOptions(), testBeta)
	checkForcesMatchGradient(t, f, pos, 2e-5)
}

func TestNewtonThirdLaw(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, DefaultOptions(), 0)
	frc := forces(f, pos)
	sum := netForce(frc)
	if sum.Norm() > 1e-9 {
		t.Fatalf("net force %v, want 0 (translation invariance)", sum)
	}
}

func TestSwitchFunctionProperties(t *testing.T) {
	sys, _ := smallSystem(5)
	f := New(sys, DefaultOptions(), 0)
	if s, ds := f.switchFn(5); s != 1 || ds != 0 {
		t.Fatalf("S inside CutOn = %v, %v", s, ds)
	}
	if s, ds := f.switchFn(11); s != 0 || ds != 0 {
		t.Fatalf("S beyond CutOff = %v, %v", s, ds)
	}
	// Continuity at the boundaries and monotone decrease inside.
	if s, _ := f.switchFn(8.0000001); math.Abs(s-1) > 1e-5 {
		t.Fatalf("S discontinuous at CutOn: %v", s)
	}
	if s, _ := f.switchFn(9.9999999); math.Abs(s) > 1e-5 {
		t.Fatalf("S discontinuous at CutOff: %v", s)
	}
	prev := 1.0
	for r := 8.05; r < 10; r += 0.05 {
		s, _ := f.switchFn(r)
		if s > prev+1e-12 {
			t.Fatalf("switch not monotone at r=%g", r)
		}
		prev = s
	}
	// dS/dr matches finite differences.
	for _, r := range []float64{8.3, 9.0, 9.7} {
		s1, _ := f.switchFn(r - 1e-6)
		s2, _ := f.switchFn(r + 1e-6)
		_, ds := f.switchFn(r)
		if math.Abs(ds-(s2-s1)/2e-6) > 1e-5 {
			t.Fatalf("dS/dr mismatch at r=%g", r)
		}
	}
}

func TestShiftElecZeroAtCutoff(t *testing.T) {
	sys, _ := smallSystem(6)
	f := New(sys, DefaultOptions(), 0)
	e, _ := f.elecKernel(9.999999)
	if math.Abs(e) > 1e-10 {
		t.Fatalf("shift energy at cutoff = %g", e)
	}
	e, _ = f.elecKernel(10.5)
	if e != 0 {
		t.Fatalf("shift energy beyond cutoff = %g", e)
	}
	// At short range the shift must approach bare Coulomb.
	e, _ = f.elecKernel(0.5)
	bare := units.CoulombConst / 0.5
	if math.Abs(e-bare)/bare > 0.01 {
		t.Fatalf("short-range shift %g too far from bare %g", e, bare)
	}
}

func TestEwaldDirectKernel(t *testing.T) {
	sys, _ := smallSystem(7)
	f := New(sys, DefaultOptions(), testBeta)
	// erfc decays: direct term must be far below bare Coulomb at 8 Å with
	// β = 0.34.
	e, _ := f.elecKernel(8)
	bare := units.CoulombConst / 8
	if e > bare*0.01 {
		t.Fatalf("Ewald direct at 8 Å = %g, should be tiny vs %g", e, bare)
	}
	// And approach bare Coulomb at very short range.
	e, _ = f.elecKernel(0.1)
	bare = units.CoulombConst / 0.1
	if math.Abs(e-bare)/bare > 0.05 {
		t.Fatalf("Ewald direct at 0.1 Å = %g vs bare %g", e, bare)
	}
}

func TestLJMinimumAtRmin(t *testing.T) {
	sys, _ := smallSystem(8)
	f := New(sys, DefaultOptions(), 0)
	// For two OW atoms: rmin = 2·1.768, depth = 0.152.
	i, j := int32(7), int32(10) // both water oxygens
	if sys.Atoms[i].Name != "OW" || sys.Atoms[j].Name != "OW" {
		t.Fatalf("test indices wrong: %s %s", sys.Atoms[i].Name, sys.Atoms[j].Name)
	}
	rmin := 2 * 1.768
	e, dedr := f.ljKernel(i, j, rmin)
	if math.Abs(e+0.152) > 1e-9 {
		t.Fatalf("LJ at rmin = %g, want −0.152", e)
	}
	if math.Abs(dedr) > 1e-9 {
		t.Fatalf("dLJ/dr at rmin = %g, want 0", dedr)
	}
	// Repulsive inside, attractive outside.
	if _, d := f.ljKernel(i, j, rmin*0.8); d >= 0 {
		t.Fatal("LJ not repulsive inside rmin")
	}
	if _, d := f.ljKernel(i, j, rmin*1.2); d <= 0 {
		t.Fatal("LJ not attractive outside rmin")
	}
}

func TestBuildPairsExcludesBondedAnd14(t *testing.T) {
	sys, pos := smallSystem(9)
	f := New(sys, DefaultOptions(), 0)
	pairs := f.BuildPairs(pos, nil)
	is14 := map[[2]int32]bool{}
	for _, p := range sys.Pairs14 {
		is14[p] = true
	}
	for _, p := range pairs {
		if slices.Contains(sys.Excl.Of(int(p.I)), p.J) {
			t.Fatalf("excluded pair %v in list", p)
		}
		if is14[[2]int32{p.I, p.J}] {
			t.Fatalf("1-4 pair %v in list", p)
		}
	}
}

func TestWorkCountersAccumulate(t *testing.T) {
	sys, pos := smallSystem(10)
	f := New(sys, DefaultOptions(), 0)
	var w work.Counters
	pairs := f.BuildPairs(pos, &w)
	frc := make([]vec.V, len(pos))
	f.Bonded(pos, frc, &w)
	f.Nonbonded(pos, pairs, frc, &w)
	f.Pairs14(pos, frc, &w)
	if w.BondTerms != int64(len(sys.Bonds)) {
		t.Fatalf("BondTerms = %d, want %d", w.BondTerms, len(sys.Bonds))
	}
	if w.AngleTerms != int64(len(sys.Angles)) {
		t.Fatalf("AngleTerms = %d", w.AngleTerms)
	}
	if w.PairEvals == 0 || w.ListDistEvals == 0 {
		t.Fatalf("missing nonbonded work: %+v", w)
	}
}

func TestEnergiesAddAndTotals(t *testing.T) {
	a := Energies{Bond: 1, Angle: 2, Dihedral: 3, Improper: 4, LJ: 5, Elec: 6, LJ14: 7, Elec14: 8}
	b := a
	b.Add(a)
	if b.Bond != 2 || b.Elec14 != 16 {
		t.Fatalf("Add wrong: %+v", b)
	}
	if a.Bonded() != 10 || a.Nonbonded() != 26 || a.Total() != 36 {
		t.Fatalf("totals wrong: %v %v %v", a.Bonded(), a.Nonbonded(), a.Total())
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	sys, _ := smallSystem(11)
	for _, o := range []Options{
		{CutOn: 10, CutOff: 8, ListCutoff: 12},
		{CutOn: 8, CutOff: 10, ListCutoff: 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("options %+v did not panic", o)
				}
			}()
			New(sys, o, 0)
		}()
	}
}

func TestMyoglobinEnergyFinite(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	f := New(sys, DefaultOptions(), 0)
	frc := make([]vec.V, sys.N())
	var w work.Counters
	pairs := f.BuildPairs(sys.Pos, &w)
	e := f.Bonded(sys.Pos, frc, &w)
	e.Add(f.Nonbonded(sys.Pos, pairs, frc, &w))
	e.Add(f.Pairs14(sys.Pos, frc, &w))
	if math.IsNaN(e.Total()) || math.IsInf(e.Total(), 0) {
		t.Fatalf("non-finite energy %+v", e)
	}
	// The raw built geometry is strained but bounded.
	if e.Total() > 5e6 {
		t.Fatalf("initial energy implausibly large: %g", e.Total())
	}
	// Workload scale: the paper's system should have a substantial pair list.
	if w.PairEvals < 100000 {
		t.Fatalf("pair list suspiciously small: %d", w.PairEvals)
	}
	sum := netForce(frc)
	if sum.Norm() > 1e-6 {
		t.Fatalf("net force on full system: %v", sum)
	}
}
