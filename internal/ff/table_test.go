package ff

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestInteractionTableAccuracy sweeps off-node radii over the table domain
// and asserts the interpolated kernels stay inside the documented bound
// against independently computed exact math (math.Erfc, switched LJ
// basis), for both electrostatic modes.
func TestInteractionTableAccuracy(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"shift", DefaultOptions()},
		{"ewald", PMEOptions()},
	} {
		tab := NewInteractionTable(tc.o, defaultTableIntervals)
		if tab.MaxRelErr >= tableRelErrBound {
			t.Fatalf("%s: measured accuracy %g not under documented bound %g",
				tc.name, tab.MaxRelErr, tableRelErrBound)
		}
		// Independent sweep: 9973 is prime so samples avoid the node grid.
		for k := 1; k < 9973; k++ {
			u := tab.U0 + (tab.U1-tab.U0)*float64(k)/9973
			r := math.Sqrt(u)
			g12, _, g6, _, ge, _ := tab.Eval(u)

			s, _ := switchValue(tc.o, r)
			r3 := r * r * r
			r6 := r3 * r3
			w12 := s / (r6 * r6)
			w6 := s / r6
			var we float64
			switch tc.o.ElecMode {
			case ElecShift:
				if r < tc.o.CutOff {
					sh := 1 - (r/tc.o.CutOff)*(r/tc.o.CutOff)
					we = units.CoulombConst * sh * sh / r
				}
			case ElecEwaldDirect:
				we = units.CoulombConst * math.Erfc(tc.o.Beta*r) / r
			}
			check := func(what string, got, want, scale float64) {
				den := math.Max(math.Abs(want), 1e-6*scale)
				if math.Abs(got-want)/den >= tableRelErrBound {
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
	tab := NewInteractionTable(PMEOptions(), 512)
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
	tab := NewInteractionTable(DefaultOptions(), 256)
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
