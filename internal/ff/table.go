package ff

import "math"

// defaultTableIntervals is the interval count New uses. On the paper's
// 8/10 Å switch/cutoff it yields a measured max relative error of a few
// 1e-6, safely inside the documented 1e-5 bound (see
// TestInteractionTableAccuracy).
const defaultTableIntervals = 4096

// InteractionTable tabulates the three radial kernels of the nonbonded
// loop on a uniform grid in u = r², CHARMM-style, with per-interval cubic
// Hermite interpolation (C¹, so tabulated forces are the exact gradient of
// the tabulated energy and NVE simulations still conserve energy):
//
//	f12(u) = S(√u)·u⁻⁶     switched repulsive LJ basis
//	f6(u)  = S(√u)·u⁻³     switched dispersive LJ basis
//	fe(u)  = elec(√u)      electrostatic kernel per unit charge product
//
// A pair then costs no sqrt, erfc, exp or pow:
// E = A·f12 − B·f6 + qq·fe with A = ε·rmin¹², B = 2ε·rmin⁶, and the force
// magnitude over r is −2·dE/du. The domain starts at U0 (close contacts
// below it take the exact-math path) and ends at CutOff² (pairs beyond the
// cutoff are skipped before lookup).
type InteractionTable struct {
	U0, U1 float64
	n      int
	inv    float64 // n/(U1−U0) = 1/h, index scale and d/du scale

	// coef holds 12 numbers per interval: the Hermite coefficients
	// (value, h·d0, 3Δ−h(2d0+d1), −2Δ+h(d0+d1)) of f12, f6 and fe, so one
	// pair evaluation touches a single contiguous 96-byte run.
	coef []float64
}

// NewInteractionTable builds a table for the given cutoffs and
// electrostatics (ewaldBeta as in New) with n uniform intervals.
func NewInteractionTable(o Options, ewaldBeta float64, n int) *InteractionTable {
	u1 := o.CutOff * o.CutOff
	u0 := 0.25 * u1
	if u0 > 1 {
		u0 = 1
	}
	t := &InteractionTable{U0: u0, U1: u1, n: n, inv: float64(n) / (u1 - u0)}
	h := (u1 - u0) / float64(n)

	// Exact node values and du-derivatives of the three kernels.
	f12 := make([]float64, n+1)
	d12 := make([]float64, n+1)
	f6 := make([]float64, n+1)
	d6 := make([]float64, n+1)
	fe := make([]float64, n+1)
	de := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		u := u0 + float64(i)*h
		f12[i], d12[i], f6[i], d6[i], fe[i], de[i] = exactKernels(o, ewaldBeta, u)
	}
	t.coef = make([]float64, n*12)
	for i := 0; i < n; i++ {
		c := t.coef[i*12:]
		hermite(c[0:4], f12[i], f12[i+1], d12[i], d12[i+1], h)
		hermite(c[4:8], f6[i], f6[i+1], d6[i], d6[i+1], h)
		hermite(c[8:12], fe[i], fe[i+1], de[i], de[i+1], h)
	}
	return t
}

// exactKernels returns the three tabulated functions and their exact
// du-derivatives at u = r².
func exactKernels(o Options, beta, u float64) (f12, d12, f6, d6, fe, de float64) {
	r := math.Sqrt(u)
	s, dsdr := switchValue(o, r)
	dsdu := dsdr / (2 * r)
	u3 := u * u * u
	u6 := u3 * u3
	f12 = s / u6
	d12 = dsdu/u6 - 6*s/(u6*u)
	f6 = s / u3
	d6 = dsdu/u3 - 3*s/(u3*u)
	e, dedr := elecValue(o, beta, r)
	fe = e
	de = dedr / (2 * r)
	return
}

// hermite fills dst with the coefficients of the cubic Hermite interpolant
// p(t) = dst[0] + dst[1]·t + dst[2]·t² + dst[3]·t³, t ∈ [0,1], matching
// values f0/f1 and du-derivatives d0/d1 at the interval ends (h = Δu).
func hermite(dst []float64, f0, f1, d0, d1, h float64) {
	dst[0] = f0
	dst[1] = h * d0
	dst[2] = 3*(f1-f0) - h*(2*d0+d1)
	dst[3] = 2*(f0-f1) + h*(d0+d1)
}
