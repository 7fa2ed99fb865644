package topol

import (
	"math"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/vec"
)

// NewWaterBox builds a cubic box of nw TIP3-like waters on a jittered
// grid with edge length l (Å). Used by tests and by the problem-size
// scaling study.
func NewWaterBox(nw int, l float64, seed uint64) *System {
	s := &System{
		Box:   space.NewBox(l, l, l),
		Types: StandardTypes(),
	}
	r := rng.New(seed ^ 0x776174657262) // "waterb"
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
				addWater(s, r, base)
				placed++
			}
		}
	}
	s.DeriveConnectivity()
	return s
}

// NewSolvatedBox builds a water box holding approximately natoms atoms at
// liquid-like density (≈0.0334 waters/Å³), returning the system and the
// cubic PME mesh dimension that gives ≈1 Å grid spacing (rounded up to a
// multiple of 4 for FFT efficiency). It parameterizes the problem-size
// scaling study of the paper's §5 discussion ("good scalability for larger
// problems").
func NewSolvatedBox(natoms int, seed uint64) (*System, int) {
	nw, l := solvatedShape(natoms)
	return NewWaterBox(nw, l, seed), SolvatedMesh(natoms)
}

// SolvatedMesh is the PME mesh dimension of NewSolvatedBox(natoms, ·),
// without building the box: a function of the atom count alone.
func SolvatedMesh(natoms int) int {
	_, l := solvatedShape(natoms)
	return int(math.Ceil(l/4)) * 4
}

// solvatedShape is the water count and the cube edge of a solvated box.
func solvatedShape(natoms int) (waters int, edge float64) {
	waters = max(natoms/3, 8)
	const density = 0.0334 // waters per Å³
	return waters, math.Cbrt(float64(waters) / density)
}
