package ff

import (
	"math"
	"testing"

	"repro/internal/units"
)

// tableRelErrBound is the documented accuracy contract: the tabulated
// kernels reproduce the exact switched-LJ and electrostatic values to
// better than this relative error everywhere on the table domain
// (relative to the larger of the local exact value and 10⁻⁶ of the
// function's domain maximum, so the bound stays meaningful where the
// switching function approaches zero).
const tableRelErrBound = 1e-5

// testBeta is the Ewald splitting parameter the tests run the PME
// direct-space term at: the paper's 0.34 /Å.
const testBeta = 0.34

// Eval interpolates the three kernels and their du-derivatives at u, which
// must lie in [U0, U1]: the pair kernel's arithmetic, for the tests.
func (t *InteractionTable) Eval(u float64) (f12, d12, f6, d6, fe, de float64) {
	ui := (u - t.U0) * t.inv
	i := int(ui)
	if i >= t.n {
		i = t.n - 1
	}
	if i < 0 {
		i = 0
	}
	x := ui - float64(i)
	c := t.coef[i*12 : i*12+12]
	f12 = ((c[3]*x+c[2])*x+c[1])*x + c[0]
	d12 = ((3*c[3]*x+2*c[2])*x + c[1]) * t.inv
	f6 = ((c[7]*x+c[6])*x+c[5])*x + c[4]
	d6 = ((3*c[7]*x+2*c[6])*x + c[5]) * t.inv
	fe = ((c[11]*x+c[10])*x+c[9])*x + c[8]
	de = ((3*c[11]*x+2*c[10])*x + c[9]) * t.inv
	return
}

// TestInteractionTableAccuracy holds the interpolated kernels inside the
// documented bound, for both electrostatic modes, in two sweeps: three
// off-node points in every interval against the constructor's own exact
// kernels, and 9972 points that avoid the node grid against independently
// computed exact math (math.Erfc, switched LJ basis).
func TestInteractionTableAccuracy(t *testing.T) {
	for _, tc := range []struct {
		name string
		beta float64
	}{
		{"shift", 0},
		{"ewald", testBeta},
	} {
		o := DefaultOptions()
		tab := NewInteractionTable(o, tc.beta, defaultTableIntervals)
		h := (tab.U1 - tab.U0) / float64(tab.n)
		// The relative error's floor is 10⁻⁶ of each function's largest
		// node value.
		var floor12, floor6, floorE float64
		for i := 0; i <= tab.n; i++ {
			f12, _, f6, _, fe, _ := exactKernels(o, tc.beta, tab.U0+float64(i)*h)
			floor12 = math.Max(floor12, 1e-6*math.Abs(f12))
			floor6 = math.Max(floor6, 1e-6*math.Abs(f6))
			floorE = math.Max(floorE, 1e-6*math.Abs(fe))
		}
		relErr := func(got, want, floor float64) float64 {
			return math.Abs(got-want) / math.Max(math.Abs(want), floor)
		}
		var worst float64
		for i := 0; i < tab.n; i++ {
			for _, x := range [3]float64{0.21, 0.5, 0.82} {
				u := tab.U0 + (float64(i)+x)*h
				g12, _, g6, _, ge, _ := tab.Eval(u)
				e12, _, e6, _, ee, _ := exactKernels(o, tc.beta, u)
				worst = math.Max(worst, relErr(g12, e12, floor12))
				worst = math.Max(worst, relErr(g6, e6, floor6))
				worst = math.Max(worst, relErr(ge, ee, floorE))
			}
		}
		if worst >= tableRelErrBound {
			t.Fatalf("%s: off-node accuracy %g not under documented bound %g", tc.name, worst, tableRelErrBound)
		}
		// Independent sweep: 9973 is prime so samples avoid the node grid.
		for k := 1; k < 9973; k++ {
			u := tab.U0 + (tab.U1-tab.U0)*float64(k)/9973
			r := math.Sqrt(u)
			g12, _, g6, _, ge, _ := tab.Eval(u)

			s, _ := switchValue(o, r)
			r3 := r * r * r
			r6 := r3 * r3
			w12 := s / (r6 * r6)
			w6 := s / r6
			var we float64
			switch {
			case tc.beta > 0:
				we = units.CoulombConst * math.Erfc(tc.beta*r) / r
			case r < o.CutOff:
				sh := 1 - (r/o.CutOff)*(r/o.CutOff)
				we = units.CoulombConst * sh * sh / r
			}
			check := func(what string, got, want, scale float64) {
				if relErr(got, want, 1e-6*scale) >= tableRelErrBound {
					t.Fatalf("%s %s at r=%g: table %g vs exact %g", tc.name, what, r, got, want)
				}
			}
			check("f12", g12, w12, 1)
			check("f6", g6, w6, 1)
			check("felec", ge, we, units.CoulombConst)
		}
	}
}

// TestInteractionTableDerivatives checks the interpolant's du-derivatives
// against finite differences of the interpolant itself — the property that
// makes tabulated forces the exact gradient of the tabulated energy.
func TestInteractionTableDerivatives(t *testing.T) {
	tab := NewInteractionTable(DefaultOptions(), testBeta, 512)
	const h = 1e-7
	for k := 3; k < 97; k++ {
		u := tab.U0 + (tab.U1-tab.U0-2*h)*float64(k)/97
		_, d12, _, d6, _, de := tab.Eval(u)
		p12, _, p6, _, pe, _ := tab.Eval(u + h)
		m12, _, m6, _, me, _ := tab.Eval(u - h)
		for _, pair := range [3][2]float64{
			{d12, (p12 - m12) / (2 * h)},
			{d6, (p6 - m6) / (2 * h)},
			{de, (pe - me) / (2 * h)},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-4*(1+math.Abs(pair[1])) {
				t.Fatalf("u=%g: derivative %g vs numeric %g", u, pair[0], pair[1])
			}
		}
	}
}

// TestInteractionTableContinuity checks C⁰/C¹ agreement at interval nodes
// (same value and derivative approaching a node from both sides).
func TestInteractionTableContinuity(t *testing.T) {
	tab := NewInteractionTable(DefaultOptions(), 0, 256)
	h := (tab.U1 - tab.U0) / 256
	const eps = 1e-9
	for i := 1; i < 256; i++ {
		u := tab.U0 + float64(i)*h
		l12, ld12, l6, ld6, le, lde := tab.Eval(u - eps)
		r12, rd12, r6, rd6, re, rde := tab.Eval(u + eps)
		vals := [6][2]float64{
			{l12, r12}, {ld12, rd12}, {l6, r6}, {ld6, rd6}, {le, re}, {lde, rde},
		}
		for _, v := range vals {
			if math.Abs(v[0]-v[1]) > 1e-6*(1+math.Abs(v[0])) {
				t.Fatalf("node %d: discontinuity %g vs %g", i, v[0], v[1])
			}
		}
	}
}
