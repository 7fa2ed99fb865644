package ewald

import (
	"math"
	"math/cmplx"

	"repro/internal/space"
	"repro/internal/units"
	"repro/internal/vec"
)

// Reference computes the full Ewald electrostatic energy and forces by the
// exact structure-factor sum — the O(N·M³) ground truth that validates the
// PME mesh approximation on small test systems.
type Reference struct {
	Box  space.Box
	Beta float64
	MMax int // reciprocal vectors run over |mi| ≤ MMax per dimension
}

// RecipEnergy returns the reciprocal-space energy and adds forces to frc
// (if non-nil):
//
//	E = (C/2πV) Σ_{m≠0} exp(−π²|m̃|²/β²)/|m̃|² · |S(m̃)|²,
//	S(m̃) = Σ_i q_i exp(2πi m̃·r_i),  m̃ = (m1/Lx, m2/Ly, m3/Lz).
func (rf Reference) RecipEnergy(pos []vec.V, charges []float64, frc []vec.V) float64 {
	v := rf.Box.Volume()
	pref := units.CoulombConst / (2 * math.Pi * v)
	betaFac := math.Pi * math.Pi / (rf.Beta * rf.Beta)
	var energy float64
	for m1 := -rf.MMax; m1 <= rf.MMax; m1++ {
		for m2 := -rf.MMax; m2 <= rf.MMax; m2++ {
			for m3 := -rf.MMax; m3 <= rf.MMax; m3++ {
				if m1 == 0 && m2 == 0 && m3 == 0 {
					continue
				}
				mt := vec.New(float64(m1)/rf.Box.L.X, float64(m2)/rf.Box.L.Y, float64(m3)/rf.Box.L.Z)
				m2norm := mt.Norm2()
				a := math.Exp(-betaFac*m2norm) / m2norm
				var s complex128
				for i, r := range pos {
					phase := 2 * math.Pi * mt.Dot(r)
					s += complex(charges[i], 0) * cmplx.Exp(complex(0, phase))
				}
				mag2 := real(s)*real(s) + imag(s)*imag(s)
				energy += pref * a * mag2
				if frc != nil {
					// F_i = −dE/dr_i; dE/dr_i = pref·a·2·Re(conj(S)·q_i·2πi·m̃·e^{iφ}).
					for i, r := range pos {
						phase := 2 * math.Pi * mt.Dot(r)
						ex := cmplx.Exp(complex(0, phase))
						cross := real(complex(0, 1) * ex * cmplx.Conj(s)) // Re(i·e^{iφ}·S̄)
						g := pref * a * 2 * charges[i] * 2 * math.Pi * cross
						frc[i] = frc[i].Sub(mt.Scale(g))
					}
				}
			}
		}
	}
	return energy
}

// DirectEnergy returns the direct-space lattice sum with the erfc kernel,
// including the first shell of periodic images (27 lattice shifts around
// the minimum image) and each atom's interaction with its own images —
// accurate whenever erfc(β·L) is negligible, which holds for every β the
// tests use. Forces are accumulated into frc when non-nil.
func (rf Reference) DirectEnergy(pos []vec.V, charges []float64, frc []vec.V) float64 {
	var e float64
	l := rf.Box.L
	addTerm := func(i, j int, qq float64, d vec.V) {
		r := d.Norm()
		erfc := math.Erfc(rf.Beta * r)
		e += units.CoulombConst * qq * erfc / r
		if frc != nil {
			dedr := -units.CoulombConst * qq * (erfc/(r*r) + 2*rf.Beta/math.SqrtPi*math.Exp(-rf.Beta*rf.Beta*r*r)/r)
			fv := d.Scale(-dedr / r)
			frc[i] = frc[i].Add(fv)
			frc[j] = frc[j].Sub(fv)
		}
	}
	for i := 0; i < len(pos); i++ {
		for j := i; j < len(pos); j++ {
			qq := charges[i] * charges[j]
			if qq == 0 {
				continue
			}
			d0 := rf.Box.MinImage(pos[i], pos[j])
			for nx := -1; nx <= 1; nx++ {
				for ny := -1; ny <= 1; ny++ {
					for nz := -1; nz <= 1; nz++ {
						d := d0.Add(vec.New(float64(nx)*l.X, float64(ny)*l.Y, float64(nz)*l.Z))
						if i == j {
							// Self-images: each unordered image pair once
							// (take the lexicographically positive half);
							// forces cancel by symmetry.
							if nx < 0 || (nx == 0 && (ny < 0 || (ny == 0 && nz <= 0))) {
								continue
							}
							r := d.Norm()
							e += 0.5 * units.CoulombConst * qq * math.Erfc(rf.Beta*r) / r * 2
							continue
						}
						addTerm(i, j, qq, d)
					}
				}
			}
		}
	}
	return e
}

// TotalEnergy returns the complete Ewald electrostatic energy (direct +
// reciprocal + self + background) with no exclusions, plus forces.
func (rf Reference) TotalEnergy(pos []vec.V, charges []float64, frc []vec.V) float64 {
	e := rf.DirectEnergy(pos, charges, frc)
	e += rf.RecipEnergy(pos, charges, frc)
	e += SelfEnergy(charges, rf.Beta)
	e += BackgroundEnergy(charges, rf.Beta, rf.Box.Volume())
	return e
}

// RecipEnergyGridDot returns ½ ΣQ·conv from the most recent Recip call:
// the same reciprocal energy as the spectrum sum, read off the grids.
func (p *PME) RecipEnergyGridDot() float64 {
	var e float64
	for i := range p.rgrid {
		e += p.rgrid[i] * p.rconv[i]
	}
	return 0.5 * e
}
