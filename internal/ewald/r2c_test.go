package ewald

import (
	"math"
	"testing"

	"repro/internal/fft"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// TestRealRecipMatchesComplexRecip pins the r2c half-spectrum pipeline to
// the reference complex pipeline: same energy to near-roundoff, same
// forces, and a consistent grid-dot cross-check on both routes.
func TestRealRecipMatchesComplexRecip(t *testing.T) {
	box := space.NewBox(12, 14, 10)
	r := rng.New(11)
	pos, charges := randomNeutralSystem(r, 32, box)
	const beta = 0.5

	pReal := NewPME(box, beta, 30, 32, 24, 4)
	pExact := NewPME(box, beta, 30, 32, 24, 4)
	pExact.ExactFFT = true
	if pReal.rplan == nil {
		t.Fatal("even mesh should have a real plan")
	}

	fReal := make([]vec.V, len(pos))
	fExact := make([]vec.V, len(pos))
	eReal := pReal.Recip(pos, charges, fReal, nil)
	eExact := pExact.Recip(pos, charges, fExact, nil)

	if !pReal.lastReal {
		t.Fatal("default path should be the real pipeline")
	}
	if pExact.lastReal {
		t.Fatal("ExactFFT must route through the complex pipeline")
	}
	if rel := math.Abs(eReal-eExact) / math.Abs(eExact); rel > 1e-10 {
		t.Fatalf("real-path energy %g vs complex-path %g (rel %g)", eReal, eExact, rel)
	}
	for i := range fReal {
		d := fReal[i].Sub(fExact[i]).Norm()
		if d > 1e-9*(1+fExact[i].Norm()) {
			t.Fatalf("force %d: real %v vs complex %v", i, fReal[i], fExact[i])
		}
	}
	// Grid-dot consistency must hold on the real route too.
	if alt := pReal.RecipEnergyGridDot(); math.Abs(alt-eReal)/math.Abs(eReal) > 1e-9 {
		t.Fatalf("real grid-dot %g vs k-space %g", alt, eReal)
	}
}

// TestRealRecipPaperGrid runs the real pipeline on the paper's 80×36×48
// mesh and checks it against the complex one.
func TestRealRecipPaperGrid(t *testing.T) {
	box := space.NewBox(56.702, 25.181, 33.575)
	r := rng.New(12)
	pos, charges := randomNeutralSystem(r, 200, box)

	pReal := NewPME(box, 0.34, 80, 36, 48, 4)
	pExact := NewPME(box, 0.34, 80, 36, 48, 4)
	pExact.ExactFFT = true
	eReal := pReal.Recip(pos, charges, nil, nil)
	eExact := pExact.Recip(pos, charges, nil, nil)
	if rel := math.Abs(eReal-eExact) / math.Abs(eExact); rel > 1e-10 {
		t.Fatalf("paper grid: real %g vs complex %g (rel %g)", eReal, eExact, rel)
	}
}

// TestOddMeshFallsBackToComplex: an odd K1 has no r2c plan; Recip must
// silently use the complex route and still satisfy its cross-checks.
func TestOddMeshFallsBackToComplex(t *testing.T) {
	box := space.NewBox(11, 12, 13)
	r := rng.New(13)
	pos, charges := randomNeutralSystem(r, 16, box)

	p := NewPME(box, 0.5, 27, 30, 24, 4)
	if p.rplan != nil {
		t.Fatal("odd K1 must not build a real plan")
	}
	e := p.Recip(pos, charges, nil, nil)
	if p.lastReal {
		t.Fatal("odd K1 must route through the complex pipeline")
	}
	if alt := p.RecipEnergyGridDot(); math.Abs(alt-e)/math.Abs(e) > 1e-9 {
		t.Fatalf("grid-dot %g vs k-space %g", alt, e)
	}
}

// TestRealRecipCountersUnchanged: the modelled work of Recip is defined by
// the model (complex transforms over the full mesh), not by which host
// path ran, so real and exact paths must report identical counters.
func TestRealRecipCountersUnchanged(t *testing.T) {
	box := space.NewBox(12, 14, 10)
	r := rng.New(14)
	pos, charges := randomNeutralSystem(r, 20, box)

	pReal := NewPME(box, 0.5, 20, 20, 20, 4)
	pExact := NewPME(box, 0.5, 20, 20, 20, 4)
	pExact.ExactFFT = true
	var wReal, wExact work.Counters
	pReal.Recip(pos, charges, nil, &wReal)
	pExact.Recip(pos, charges, nil, &wExact)
	if wReal != wExact {
		t.Fatalf("counters differ: real %+v exact %+v", wReal, wExact)
	}
	if wReal.FFTOps != pReal.Ops() {
		t.Fatalf("FFTOps %d, want modelled %d", wReal.FFTOps, pReal.Ops())
	}
}

// TestOpsNeedsNoComplexPlan: Ops is answered from the mesh dimensions —
// the integer the recursive FFT's plans gave for the paper mesh, and the
// count a built complex plan reports for a mesh with a Bluestein axis —
// and the complex plan is built only by the paths that transform with it.
func TestOpsNeedsNoComplexPlan(t *testing.T) {
	box := space.NewBox(56.702, 25.181, 33.575)
	p := NewPME(box, 0.34, 80, 36, 48, 4)
	if got := p.Ops(); got != 23597568 {
		t.Fatalf("paper-mesh Ops = %d, recorded 23597568", got)
	}
	r := rng.New(15)
	pos, charges := randomNeutralSystem(r, 20, box)
	p.Recip(pos, charges, nil, nil)
	if p.plan != nil {
		t.Fatal("the half-spectrum path built the complex plan")
	}
	p.ExactFFT = true
	p.Recip(pos, charges, nil, nil)
	if p.plan == nil {
		t.Fatal("ExactFFT ran without the complex plan")
	}
	blu := NewPME(box, 0.34, 74, 37, 10, 4)
	if got, want := blu.Ops(), 2*fft.NewPlan3D(74, 37, 10).Ops(); got != want {
		t.Fatalf("Bluestein-mesh Ops = %d, a built plan gives %d", got, want)
	}
}

// The serial Recip sizes its grids and the FFT scratch on the first call;
// after that a step allocates nothing.
func TestSerialRecipDoesNotAllocateSteadyState(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	r := rng.New(16)
	pos, charges := randomNeutralSystem(r, 60, box)
	for _, exact := range []bool{false, true} {
		p := NewPME(box, 0.34, 40, 18, 24, 4)
		p.ExactFFT = exact
		frc := make([]vec.V, len(pos))
		p.Recip(pos, charges, frc, nil)
		if allocs := testing.AllocsPerRun(5, func() { p.Recip(pos, charges, frc, nil) }); allocs != 0 {
			t.Fatalf("ExactFFT=%v: serial Recip allocates %v per call in steady state", exact, allocs)
		}
	}
}
