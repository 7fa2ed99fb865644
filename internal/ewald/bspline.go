// Package ewald implements smooth particle mesh Ewald (Essmann et al.,
// J. Chem. Phys. 103:8577, 1995) for orthorhombic periodic cells, plus a
// reference (structure-factor) Ewald summation used to validate it. The
// paper's runs use an 80×36×48 charge mesh with 4th-order B-spline
// interpolation.
package ewald

// bsplineM evaluates the cardinal B-spline M_n(u) of order n at u,
// nonzero on (0, n), via the standard recursion.
func bsplineM(n int, u float64) float64 {
	if u <= 0 || u >= float64(n) {
		return 0
	}
	if n == 2 {
		return 1 - abs(u-1)
	}
	nf := float64(n)
	return (u*bsplineM(n-1, u) + (nf-u)*bsplineM(n-1, u-1)) / (nf - 1)
}

// bsplineDeriv evaluates dM_n/du = M_{n−1}(u) − M_{n−1}(u−1).
func bsplineDeriv(n int, u float64) float64 {
	return bsplineM(n-1, u) - bsplineM(n-1, u-1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// splineWeights fills w[t] and dw[t] (t = 0..order−1) with the B-spline
// value and derivative for a particle at scaled coordinate u ∈ [0, K), and
// returns the first grid index (possibly negative; callers wrap). Grid
// point g = k0 + t receives weight M_n(u − g) with u − g ∈ (0, n).
func splineWeights(order int, u float64, w, dw []float64) (k0 int) {
	fl := int(floor(u))
	k0 = fl - order + 1
	if order == 4 {
		// Closed-form cubic B-spline pieces in the fractional offset
		// f = u − ⌊u⌋: w[t] = M₄(f + 3 − t), dw[t] = M₃(f+3−t) − M₃(f+2−t).
		// Identical to the recursion up to roundoff, ~6× cheaper.
		f := u - float64(fl)
		f2 := f * f
		f3 := f2 * f
		omf := 1 - f
		w[0] = omf * omf * omf / 6
		w[1] = (3*f3 - 6*f2 + 4) / 6
		w[2] = (-3*f3 + 3*f2 + 3*f + 1) / 6
		w[3] = f3 / 6
		dw[0] = -omf * omf / 2
		dw[1] = f * (3*f - 4) / 2
		dw[2] = (-3*f2 + 2*f + 1) / 2
		dw[3] = f2 / 2
		return k0
	}
	for t := 0; t < order; t++ {
		arg := u - float64(k0+t)
		w[t] = bsplineM(order, arg)
		dw[t] = bsplineDeriv(order, arg)
	}
	return k0
}

// splineBase is splineWeights' k0 alone: the first grid index of the
// order-point support of scaled coordinate u (possibly negative; callers
// wrap).
func splineBase(order int, u float64) int { return int(floor(u)) - order + 1 }

func floor(x float64) float64 {
	f := float64(int(x))
	if f > x {
		f--
	}
	return f
}
