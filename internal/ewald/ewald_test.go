package ewald

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/units"
	"repro/internal/vec"
	"repro/internal/work"
)

func TestBsplinePartitionOfUnity(t *testing.T) {
	// Σ_k M_n(u − k) = 1 for any u: the spline weights must always sum to 1.
	for _, order := range []int{3, 4, 5, 6} {
		w := make([]float64, order)
		dw := make([]float64, order)
		for _, u := range []float64{0.0, 0.1, 0.5, 0.999, 3.7, 12.25} {
			splineWeights(order, u, w, dw)
			var s, ds float64
			for i := range w {
				s += w[i]
				ds += dw[i]
			}
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("order %d u=%g: weights sum to %g", order, u, s)
			}
			if math.Abs(ds) > 1e-12 {
				t.Fatalf("order %d u=%g: derivative weights sum to %g", order, u, ds)
			}
		}
	}
}

func TestBsplineSupportAndPositivity(t *testing.T) {
	for _, order := range []int{3, 4, 5} {
		if bsplineM(order, 0) != 0 || bsplineM(order, float64(order)) != 0 {
			t.Fatalf("order %d: nonzero at support boundary", order)
		}
		for u := 0.05; u < float64(order); u += 0.05 {
			if bsplineM(order, u) <= 0 {
				t.Fatalf("order %d: non-positive inside support at %g", order, u)
			}
		}
	}
}

func TestBsplineNormalization(t *testing.T) {
	// ∫ M_n = 1; check by trapezoid.
	for _, order := range []int{3, 4, 5} {
		var sum float64
		const h = 1e-3
		for u := 0.0; u < float64(order); u += h {
			sum += bsplineM(order, u) * h
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("order %d: integral = %g", order, sum)
		}
	}
}

func TestBsplineDerivative(t *testing.T) {
	for _, order := range []int{3, 4, 5} {
		for u := 0.2; u < float64(order)-0.1; u += 0.3 {
			num := (bsplineM(order, u+1e-6) - bsplineM(order, u-1e-6)) / 2e-6
			if math.Abs(bsplineDeriv(order, u)-num) > 1e-6 {
				t.Fatalf("order %d u=%g: dM %g vs numeric %g", order, u, bsplineDeriv(order, u), num)
			}
		}
	}
}

// randomNeutralSystem returns n charges (neutral overall) in the box.
func randomNeutralSystem(r *rng.Source, n int, box space.Box) ([]vec.V, []float64) {
	pos := make([]vec.V, n)
	charges := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(r.Range(0, box.L.X), r.Range(0, box.L.Y), r.Range(0, box.L.Z))
		charges[i] = r.Range(-1, 1)
	}
	var s float64
	for _, q := range charges {
		s += q
	}
	for i := range charges {
		charges[i] -= s / float64(n)
	}
	return pos, charges
}

func TestPMEMatchesReferenceRecip(t *testing.T) {
	box := space.NewBox(12, 14, 10)
	r := rng.New(1)
	pos, charges := randomNeutralSystem(r, 24, box)
	const beta = 0.5
	ref := Reference{Box: box, Beta: beta, MMax: 14}
	want := ref.RecipEnergy(pos, charges, nil)

	p := NewPME(box, beta, 30, 32, 24, 5)
	got := p.Recip(pos, charges, nil, nil)
	if rel := math.Abs(got-want) / math.Abs(want); rel > 2e-3 {
		t.Fatalf("PME recip %g vs reference %g (rel %g)", got, want, rel)
	}
	// The two internal energy routes must agree tightly.
	alt := p.RecipEnergyGridDot()
	if rel := math.Abs(alt-got) / math.Abs(got); rel > 1e-9 {
		t.Fatalf("k-space energy %g vs grid-dot energy %g", got, alt)
	}
}

func TestPMEForcesMatchReference(t *testing.T) {
	box := space.NewBox(11, 12, 13)
	r := rng.New(2)
	pos, charges := randomNeutralSystem(r, 16, box)
	const beta = 0.5
	ref := Reference{Box: box, Beta: beta, MMax: 14}
	fWant := make([]vec.V, len(pos))
	ref.RecipEnergy(pos, charges, fWant)

	p := NewPME(box, beta, 32, 32, 32, 5)
	fGot := make([]vec.V, len(pos))
	p.Recip(pos, charges, fGot, nil)

	var scale float64
	for _, f := range fWant {
		scale = math.Max(scale, f.Norm())
	}
	for i := range fWant {
		if d := vec.Dist(fWant[i], fGot[i]); d > 5e-3*scale {
			t.Fatalf("atom %d: PME force %v vs reference %v (scale %g)", i, fGot[i], fWant[i], scale)
		}
	}
}

func TestPMEForceIsNegativeGradient(t *testing.T) {
	box := space.NewBox(10, 10, 10)
	r := rng.New(3)
	pos, charges := randomNeutralSystem(r, 10, box)
	p := NewPME(box, 0.6, 24, 24, 24, 4)
	frc := make([]vec.V, len(pos))
	p.Recip(pos, charges, frc, nil)
	const h = 1e-5
	for i := 0; i < 4; i++ { // a sample of atoms
		for dim := 0; dim < 3; dim++ {
			orig := pos[i]
			bump := func(s float64) float64 {
				q := orig
				switch dim {
				case 0:
					q.X += s
				case 1:
					q.Y += s
				case 2:
					q.Z += s
				}
				pos[i] = q
				e := p.Recip(pos, charges, nil, nil)
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
			if math.Abs(got+grad) > 1e-4*(1+math.Abs(grad)) {
				t.Fatalf("atom %d dim %d: F=%g, −dE/dx=%g", i, dim, got, -grad)
			}
		}
	}
}

func TestPMERecipTranslationInvariance(t *testing.T) {
	box := space.NewBox(10, 12, 14)
	r := rng.New(4)
	pos, charges := randomNeutralSystem(r, 12, box)
	p := NewPME(box, 0.5, 24, 24, 28, 4)
	e1 := p.Recip(pos, charges, nil, nil)
	shift := vec.New(1.2345, -0.777, 3.21)
	shifted := make([]vec.V, len(pos))
	for i := range pos {
		shifted[i] = pos[i].Add(shift)
	}
	e2 := p.Recip(shifted, charges, nil, nil)
	// Interpolation error varies slightly with grid registration; the
	// energies must agree to the PME accuracy level, not to roundoff.
	if rel := math.Abs(e1-e2) / math.Abs(e1); rel > 1e-3 {
		t.Fatalf("recip energy not translation invariant: %g vs %g", e1, e2)
	}
}

func TestPMERecipNonNegative(t *testing.T) {
	// The reciprocal sum is a sum of |S|²·positive terms.
	box := space.NewBox(10, 10, 10)
	r := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		pos, charges := randomNeutralSystem(r, 8, box)
		p := NewPME(box, 0.5, 20, 20, 20, 4)
		if e := p.Recip(pos, charges, nil, nil); e < 0 {
			t.Fatalf("negative recip energy %g", e)
		}
	}
}

func TestSelfEnergy(t *testing.T) {
	charges := []float64{1, -1, 0.5}
	beta := 0.4
	want := -units.CoulombConst * beta / math.SqrtPi * (1 + 1 + 0.25)
	if got := SelfEnergy(charges, beta); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SelfEnergy = %g, want %g", got, want)
	}
}

func TestBackgroundEnergyNeutral(t *testing.T) {
	if e := BackgroundEnergy([]float64{1, -1}, 0.4, 1000); e != 0 {
		t.Fatalf("neutral background = %g", e)
	}
	if e := BackgroundEnergy([]float64{1, 1}, 0.4, 1000); e >= 0 {
		t.Fatalf("charged background should be negative, got %g", e)
	}
}

type testExcl struct{ sets [][]int32 }

func (e testExcl) Of(i int) []int32 { return e.sets[i] }

func TestExclusionCorrection(t *testing.T) {
	box := space.NewBox(20, 20, 20)
	pos := []vec.V{vec.New(5, 5, 5), vec.New(6.2, 5, 5), vec.New(10, 10, 10)}
	charges := []float64{0.5, -0.4, 0.3}
	excl := testExcl{sets: [][]int32{{1}, {0}, {}}}
	const beta = 0.4
	frc := make([]vec.V, 3)
	var w work.Counters
	e := ExclusionCorrection(box, pos, charges, excl, beta, frc, &w)
	r := 1.2
	want := -units.CoulombConst * 0.5 * -0.4 * math.Erf(beta*r) / r
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("exclusion correction = %g, want %g", e, want)
	}
	if w.PairEvals != 1 {
		t.Fatalf("PairEvals = %d, want 1", w.PairEvals)
	}
	if frc[2] != vec.Zero {
		t.Fatal("force on non-excluded atom")
	}
	// Finite-difference check on atom 0.
	const h = 1e-6
	bump := func(s float64) float64 {
		p := pos[0]
		pos[0] = vec.New(p.X+s, p.Y, p.Z)
		e := ExclusionCorrection(box, pos, charges, excl, beta, nil, nil)
		pos[0] = p
		return e
	}
	grad := (bump(h) - bump(-h)) / (2 * h)
	if math.Abs(frc[0].X+grad) > 1e-6*(1+math.Abs(grad)) {
		t.Fatalf("exclusion force %g vs −grad %g", frc[0].X, -grad)
	}
}

// TestEwaldTotalIndependentOfBeta is the classic Ewald consistency check:
// the physical energy must not depend on the splitting parameter.
func TestEwaldTotalIndependentOfBeta(t *testing.T) {
	box := space.NewBox(10, 10, 10)
	r := rng.New(6)
	pos, charges := randomNeutralSystem(r, 12, box)
	var energies []float64
	for _, beta := range []float64{0.45, 0.55, 0.65} {
		ref := Reference{Box: box, Beta: beta, MMax: 16}
		energies = append(energies, ref.TotalEnergy(pos, charges, nil))
	}
	for i := 1; i < len(energies); i++ {
		if rel := math.Abs(energies[i]-energies[0]) / math.Abs(energies[0]); rel > 1e-4 {
			t.Fatalf("total Ewald energy depends on beta: %v", energies)
		}
	}
}

func TestReferenceForcesMatchGradient(t *testing.T) {
	box := space.NewBox(9, 9, 9)
	r := rng.New(7)
	pos, charges := randomNeutralSystem(r, 6, box)
	ref := Reference{Box: box, Beta: 0.6, MMax: 10}
	frc := make([]vec.V, len(pos))
	ref.TotalEnergy(pos, charges, frc)
	const h = 1e-5
	for i := range pos {
		orig := pos[i]
		bump := func(s float64) float64 {
			pos[i] = vec.New(orig.X+s, orig.Y, orig.Z)
			e := ref.TotalEnergy(pos, charges, nil)
			pos[i] = orig
			return e
		}
		grad := (bump(h) - bump(-h)) / (2 * h)
		if math.Abs(frc[i].X+grad) > 1e-5*(1+math.Abs(grad)) {
			t.Fatalf("atom %d: reference force %g vs −grad %g", i, frc[i].X, -grad)
		}
	}
}

func TestPMEWorkCounters(t *testing.T) {
	box := space.NewBox(10, 10, 10)
	r := rng.New(8)
	pos, charges := randomNeutralSystem(r, 20, box)
	p := NewPME(box, 0.5, 20, 20, 20, 4)
	var w work.Counters
	p.Recip(pos, charges, nil, &w)
	if w.GridCharges != 2*20*64 {
		t.Fatalf("GridCharges = %d, want %d", w.GridCharges, 2*20*64)
	}
	if w.FFTOps != p.Ops() || w.FFTOps <= 0 {
		t.Fatalf("FFTOps = %d", w.FFTOps)
	}
	if w.RecipPoints != 20*20*20 {
		t.Fatalf("RecipPoints = %d", w.RecipPoints)
	}
}

// NewPME panics on a non-positive β, an order outside [3, 8] and a
// dimension below 2·order; TestOddMeshRejected covers the odd K1.
func TestNewPMEValidation(t *testing.T) {
	box := space.NewBox(10, 10, 10)
	for _, f := range []func(){
		func() { NewPME(box, 0, 20, 20, 20, 4) },
		func() { NewPME(box, 0.5, 20, 20, 20, 2) },
		func() { NewPME(box, 0.5, 4, 20, 20, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid PME config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPaperGridPMERuns(t *testing.T) {
	// The production configuration: 80×36×48 mesh, order 4, β=0.34.
	box := space.NewBox(80, 36, 48)
	r := rng.New(9)
	pos, charges := randomNeutralSystem(r, 200, box)
	p := NewPME(box, 0.34, 80, 36, 48, 4)
	frc := make([]vec.V, len(pos))
	e := p.Recip(pos, charges, frc, nil)
	if math.IsNaN(e) || e < 0 {
		t.Fatalf("paper-grid recip energy = %g", e)
	}
	// PME does not conserve net momentum exactly (a well-known property of
	// the mesh interpolation); the residual must merely be small relative
	// to the total force magnitude.
	var mag float64
	var net vec.V
	for _, f := range frc {
		mag += f.Norm()
		net = net.Add(f)
	}
	if net.Norm() > 1e-3*mag {
		t.Fatalf("net reciprocal force %v too large vs total magnitude %g", net, mag)
	}
}
