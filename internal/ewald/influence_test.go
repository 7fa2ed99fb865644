package ewald

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/units"
)

// Psi is the influence function evaluated point by point, as every
// evaluation computed it before the factored table: eCoef such that the
// reciprocal energy is Σ eCoef·|F(Q)|², and cCoef = 2·N·eCoef, zero at
// the origin. It is the bitwise oracle of Influence.
func (p *PME) Psi(m1, m2, m3 int) (eCoef, cCoef float64) {
	if m1 == 0 && m2 == 0 && m3 == 0 {
		return 0, 0
	}
	v := p.Box.Volume()
	n := float64(p.GridLen())
	pref := units.CoulombConst / (2 * math.Pi * v)
	betaFac := math.Pi * math.Pi / (p.Beta * p.Beta)
	mx := signedFreq(m1, p.K1) / p.Box.L.X
	my := signedFreq(m2, p.K2) / p.Box.L.Y
	mz := signedFreq(m3, p.K3) / p.Box.L.Z
	m2norm := mx*mx + my*my + mz*mz
	b := p.bsq1[m1] * p.bsq2[m2] * p.bsq3[m3]
	a := math.Exp(-betaFac*m2norm) / m2norm * b
	eCoef = pref * a
	return eCoef, 2 * eCoef * n
}

// signedFreq maps mesh index m to the signed frequency in [−K/2, K/2).
func signedFreq(m, k int) float64 {
	if m <= k/2 {
		return float64(m)
	}
	return float64(m - k)
}

// TestInfluenceMatchesPsi: every x-line of the factored table is Psi bit
// for bit over the whole mesh — the mirror planes m = K/2 of the even
// dimensions and the origin included — on the paper mesh, a mesh with odd
// K2 and K3, and a solvated cube.
func TestInfluenceMatchesPsi(t *testing.T) {
	solv, mesh := topol.NewSolvatedBox(300, 1)
	paper := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	cases := []struct {
		name       string
		box        space.Box
		beta       float64
		k1, k2, k3 int
	}{
		{"paper", paper.Box, 0.34, 80, 36, 48},
		{"odd K2 K3", space.NewBox(21, 16, 27), 0.41, 20, 15, 27},
		{"solvated", solv.Box, 0.34, mesh, mesh, mesh},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPME(tc.box, tc.beta, tc.k1, tc.k2, tc.k3, 4)
			psi := p.Influence()
			if want := (tc.k1/2 + 1) * (tc.k2/2 + 1) * (tc.k3/2 + 1); len(psi.g) != want {
				t.Fatalf("table holds %d entries, want the folded octant's %d", len(psi.g), want)
			}
			eC, cC := make([]float64, tc.k1), make([]float64, tc.k1)
			var mirrors int
			for m2 := 0; m2 < tc.k2; m2++ {
				for m3 := 0; m3 < tc.k3; m3++ {
					psi.Line(m2, m3, eC, cC)
					for m1 := 0; m1 < tc.k1; m1++ {
						e, c := p.Psi(m1, m2, m3)
						if math.Float64bits(eC[m1]) != math.Float64bits(e) || math.Float64bits(cC[m1]) != math.Float64bits(c) {
							t.Fatalf("(%d,%d,%d): table (%v, %v), Psi (%v, %v)", m1, m2, m3, eC[m1], cC[m1], e, c)
						}
						if 2*m1 == tc.k1 || 2*m2 == tc.k2 || 2*m3 == tc.k3 {
							mirrors++
						}
					}
				}
			}
			if mirrors == 0 {
				t.Fatal("no mirror plane m = K/2 was compared")
			}
			psi.Line(0, 0, eC, cC)
			if math.Float64bits(eC[0]) != 0 || math.Float64bits(cC[0]) != 0 {
				t.Fatalf("origin reads (%v, %v), want +0", eC[0], cC[0])
			}
		})
	}
}

// TestHalfInfluenceMatchesPsi: Recip's half-spectrum tables, derived from
// the same factored table, are Psi with the Hermitian energy weight.
func TestHalfInfluenceMatchesPsi(t *testing.T) {
	for _, k := range [][3]int{{80, 36, 48}, {20, 15, 27}} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			p := NewPME(space.NewBox(33, 17, 25), 0.34, k[0], k[1], k[2], 4)
			p.allocRecip()
			hx := p.rplan.HX()
			idx := 0
			for m1 := 0; m1 < hx; m1++ {
				weight := 2.0
				if m1 == 0 || 2*m1 == p.K1 {
					weight = 1.0
				}
				for m2 := 0; m2 < p.K2; m2++ {
					for m3 := 0; m3 < p.K3; m3++ {
						e, c := p.Psi(m1, m2, m3)
						if math.Float64bits(p.eCoefH[idx]) != math.Float64bits(weight*e) || math.Float64bits(p.cCoefH[idx]) != math.Float64bits(c) {
							t.Fatalf("(%d,%d,%d): half tables (%v, %v), Psi (%v, %v)", m1, m2, m3, p.eCoefH[idx], p.cCoefH[idx], weight*e, c)
						}
						idx++
					}
				}
			}
		})
	}
}
