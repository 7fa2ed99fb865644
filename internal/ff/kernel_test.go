package ff

import (
	"math"
	"testing"

	"repro/internal/topol"
	"repro/internal/vec"
	"repro/internal/work"
)

// TestKernelMatchesExactNonbonded compares the table kernel against the
// reference pair loop on the small test system for both electrostatic
// modes: energies inside the table accuracy, forces close per atom.
func TestKernelMatchesExactNonbonded(t *testing.T) {
	for _, beta := range []float64{0, testBeta} {
		sys, pos := smallSystem(3)
		f := New(sys, DefaultOptions(), beta)

		pairs := f.BuildPairs(pos, nil)
		frcTab := make([]vec.V, len(pos))
		frcEx := make([]vec.V, len(pos))
		eTab := f.NewNonbondedKernel().Compute(pos, pairs, frcTab, nil)
		eEx := f.Nonbonded(pos, pairs, frcEx, nil)

		scale := math.Abs(eEx.LJ) + math.Abs(eEx.Elec) + 1
		if math.Abs(eTab.LJ-eEx.LJ) > 1e-4*scale {
			t.Fatalf("beta %v: LJ %g vs exact %g", beta, eTab.LJ, eEx.LJ)
		}
		if math.Abs(eTab.Elec-eEx.Elec) > 1e-4*scale {
			t.Fatalf("beta %v: Elec %g vs exact %g", beta, eTab.Elec, eEx.Elec)
		}
		for i := range frcTab {
			if frcTab[i].Sub(frcEx[i]).Norm() > 1e-3*(1+frcEx[i].Norm()) {
				t.Fatalf("beta %v atom %d: force %v vs exact %v", beta, i, frcTab[i], frcEx[i])
			}
		}
	}
}

// TestKernelNewtonThirdLaw: the SoA accumulation must conserve momentum.
func TestKernelNewtonThirdLaw(t *testing.T) {
	sys, pos := smallSystem(6)
	f := New(sys, DefaultOptions(), 0)
	pairs := f.BuildPairs(pos, nil)
	frc := make([]vec.V, len(pos))
	f.NewNonbondedKernel().Compute(pos, pairs, frc, nil)
	var net vec.V
	for _, fv := range frc {
		net = net.Add(fv)
	}
	if net.Norm() > 1e-9 {
		t.Fatalf("net force %v", net)
	}
}

// TestKernelForceIsTableGradient verifies by central differences that the
// kernel's forces are the exact gradient of the kernel's (tabulated)
// energy — the C¹ property that keeps NVE energy conserved with tables on.
func TestKernelForceIsTableGradient(t *testing.T) {
	sys, pos := smallSystem(7)
	f := New(sys, DefaultOptions(), testBeta)
	k := f.NewNonbondedKernel()
	pairs := f.BuildPairs(pos, nil)

	energy := func() float64 {
		frc := make([]vec.V, len(pos))
		e := k.Compute(pos, pairs, frc, nil)
		return e.LJ + e.Elec
	}
	frc := make([]vec.V, len(pos))
	k.Compute(pos, pairs, frc, nil)
	const h = 1e-6
	for _, i := range []int{0, 2, 7, 9} {
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
				e := energy()
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
			if math.Abs(got+grad) > 2e-4*(1+math.Abs(grad)) {
				t.Fatalf("atom %d dim %d: force %g vs −grad %g", i, dim, got, -grad)
			}
		}
	}
}

// TestKernelPairEvalsCounted: the modelled PairEvals stays one per listed
// pair, exactly like the exact path, independent of cutoff skips.
func TestKernelPairEvalsCounted(t *testing.T) {
	sys, pos := smallSystem(8)
	f := New(sys, DefaultOptions(), 0)
	pairs := f.BuildPairs(pos, nil)
	frc := make([]vec.V, len(pos))
	var w work.Counters
	f.NewNonbondedKernel().Compute(pos, pairs, frc, &w)
	if w.PairEvals != int64(len(pairs)) {
		t.Fatalf("PairEvals %d, want %d", w.PairEvals, len(pairs))
	}
}

// TestKernelMyoglobinMatchesExact runs the table kernel against the exact
// path on the full myoglobin system — a dense, realistic pair list.
func TestKernelMyoglobinMatchesExact(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	f := New(sys, DefaultOptions(), testBeta)

	pairs := f.BuildPairs(sys.Pos, nil)
	frcTab := make([]vec.V, sys.N())
	frcEx := make([]vec.V, sys.N())
	eTab := f.NewNonbondedKernel().Compute(sys.Pos, pairs, frcTab, nil)
	eEx := f.Nonbonded(sys.Pos, pairs, frcEx, nil)

	if rel := math.Abs(eTab.LJ-eEx.LJ) / (1 + math.Abs(eEx.LJ)); rel > 1e-5 {
		t.Fatalf("myoglobin LJ %g vs exact %g (rel %g)", eTab.LJ, eEx.LJ, rel)
	}
	if rel := math.Abs(eTab.Elec-eEx.Elec) / (1 + math.Abs(eEx.Elec)); rel > 1e-5 {
		t.Fatalf("myoglobin Elec %g vs exact %g (rel %g)", eTab.Elec, eEx.Elec, rel)
	}
	var worst float64
	for i := range frcTab {
		d := frcTab[i].Sub(frcEx[i]).Norm() / (1 + frcEx[i].Norm())
		if d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Fatalf("myoglobin worst force deviation %g", worst)
	}
}
