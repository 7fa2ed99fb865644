package ewald

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// complexRecip is the reference mesh pipeline on a complex grid: a full
// complex 3-D transform and the influence function evaluated point by
// point over the whole spectrum. It is the oracle of Recip's half-spectrum
// pipeline and returns the k-space energy and the grid-dot energy
// ½ΣQ·conv; forces accumulate into frc when non-nil.
func complexRecip(p *PME, pos []vec.V, charges []float64, frc []vec.V) (energy, gridDot float64) {
	grid := make([]float64, p.GridLen())
	p.Spread(pos, charges, 0, len(pos), grid)
	conv := make([]complex128, len(grid))
	for i, q := range grid {
		conv[i] = complex(q, 0)
	}
	plan := fft.NewPlan3D(p.K1, p.K2, p.K3)
	plan.Forward(conv)
	idx := 0
	for m1 := 0; m1 < p.K1; m1++ {
		for m2 := 0; m2 < p.K2; m2++ {
			for m3 := 0; m3 < p.K3; m3++ {
				eCoef, cCoef := p.Psi(m1, m2, m3)
				fq := conv[idx]
				energy += eCoef * (real(fq)*real(fq) + imag(fq)*imag(fq))
				conv[idx] = fq * complex(cCoef, 0)
				idx++
			}
		}
	}
	plan.Inverse(conv)
	p.Interpolate(conv, pos, charges, 0, len(pos), frc)
	for i := range grid {
		gridDot += grid[i] * real(conv[i])
	}
	return energy, 0.5 * gridDot
}

// TestRealRecipMatchesComplexRecip pins the r2c half-spectrum pipeline to
// the reference complex pipeline: same energy to near-roundoff, same
// forces, and a consistent grid-dot cross-check on both routes.
func TestRealRecipMatchesComplexRecip(t *testing.T) {
	box := space.NewBox(12, 14, 10)
	r := rng.New(11)
	pos, charges := randomNeutralSystem(r, 32, box)
	const beta = 0.5

	p := NewPME(box, beta, 30, 32, 24, 4)
	fReal := make([]vec.V, len(pos))
	fExact := make([]vec.V, len(pos))
	eReal := p.Recip(pos, charges, fReal, nil)
	eExact, dotExact := complexRecip(NewPME(box, beta, 30, 32, 24, 4), pos, charges, fExact)

	if rel := math.Abs(eReal-eExact) / math.Abs(eExact); rel > 1e-10 {
		t.Fatalf("real-path energy %g vs complex-path %g (rel %g)", eReal, eExact, rel)
	}
	for i := range fReal {
		d := fReal[i].Sub(fExact[i]).Norm()
		if d > 1e-9*(1+fExact[i].Norm()) {
			t.Fatalf("force %d: real %v vs complex %v", i, fReal[i], fExact[i])
		}
	}
	if math.Abs(dotExact-eExact)/math.Abs(eExact) > 1e-9 {
		t.Fatalf("complex grid-dot %g vs k-space %g", dotExact, eExact)
	}
	if alt := p.RecipEnergyGridDot(); math.Abs(alt-eReal)/math.Abs(eReal) > 1e-9 {
		t.Fatalf("real grid-dot %g vs k-space %g", alt, eReal)
	}
}

// TestRealRecipPaperGrid runs the real pipeline on the paper's 80×36×48
// mesh and checks it against the complex one.
func TestRealRecipPaperGrid(t *testing.T) {
	box := space.NewBox(56.702, 25.181, 33.575)
	r := rng.New(12)
	pos, charges := randomNeutralSystem(r, 200, box)

	eReal := NewPME(box, 0.34, 80, 36, 48, 4).Recip(pos, charges, nil, nil)
	eExact, _ := complexRecip(NewPME(box, 0.34, 80, 36, 48, 4), pos, charges, nil)
	if rel := math.Abs(eReal-eExact) / math.Abs(eExact); rel > 1e-10 {
		t.Fatalf("paper grid: real %g vs complex %g (rel %g)", eReal, eExact, rel)
	}
}

// TestOddMeshRejected: an odd K1 has no half-spectrum transform and there
// is no complex route to fall back to, so NewPME refuses the mesh, naming
// the real plan's error. pmd.ValidateDecomp rejects it as a typed error
// before any engine is built.
func TestOddMeshRejected(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "even x dim") {
			t.Fatalf("odd K1: recovered %q, want the real plan's even-x error", msg)
		}
	}()
	NewPME(space.NewBox(11, 12, 13), 0.5, 27, 30, 24, 4)
}

// TestRealRecipCountersUnchanged: the modelled work of Recip is defined by
// the model (complex transforms over the full mesh), not by how the host
// ran it, so the counters are the modelled ones at every worker count.
func TestRealRecipCountersUnchanged(t *testing.T) {
	box := space.NewBox(12, 14, 10)
	r := rng.New(14)
	pos, charges := randomNeutralSystem(r, 20, box)

	var want work.Counters
	for _, workers := range []int{0, 1, 4} {
		p := NewPME(box, 0.5, 20, 20, 20, 4)
		if workers > 0 {
			p.SetPool(kernels.NewPool(workers))
		}
		var w work.Counters
		p.Recip(pos, charges, nil, &w)
		if w.FFTOps != p.Ops() {
			t.Fatalf("FFTOps %d, want modelled %d", w.FFTOps, p.Ops())
		}
		if workers == 0 {
			want = w
		} else if w != want {
			t.Fatalf("workers=%d: counters %+v, no pool %+v", workers, w, want)
		}
	}
}

// TestOpsNeedsNoComplexPlan: Ops is answered from the mesh dimensions —
// the integer the recursive FFT's plans gave for the paper mesh, and the
// count a built complex plan reports for a mesh with a Bluestein axis.
func TestOpsNeedsNoComplexPlan(t *testing.T) {
	box := space.NewBox(56.702, 25.181, 33.575)
	p := NewPME(box, 0.34, 80, 36, 48, 4)
	if got := p.Ops(); got != 23597568 {
		t.Fatalf("paper-mesh Ops = %d, recorded 23597568", got)
	}
	blu := NewPME(box, 0.34, 74, 37, 10, 4)
	if got, want := blu.Ops(), 2*fft.NewPlan3D(74, 37, 10).Ops(); got != want {
		t.Fatalf("Bluestein-mesh Ops = %d, a built plan gives %d", got, want)
	}
}

// Without a pool Recip sizes its grids and the FFT scratch on the first
// call; after that a step allocates nothing.
func TestSerialRecipDoesNotAllocateSteadyState(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	r := rng.New(16)
	pos, charges := randomNeutralSystem(r, 60, box)
	p := NewPME(box, 0.34, 40, 18, 24, 4)
	frc := make([]vec.V, len(pos))
	p.Recip(pos, charges, frc, nil)
	if allocs := testing.AllocsPerRun(5, func() { p.Recip(pos, charges, frc, nil) }); allocs != 0 {
		t.Fatalf("Recip allocates %v per call in steady state", allocs)
	}
}
