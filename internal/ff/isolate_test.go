package ff

import (
	"testing"

	"repro/internal/vec"
)

func TestIsolateTerms(t *testing.T) {
	sys, pos := smallSystem(1)
	f := New(sys, DefaultOptions(), 0)
	terms := map[string]struct {
		energy func([]vec.V) float64
		force  func([]vec.V) []vec.V
	}{
		"bond": {
			func(p []vec.V) float64 { return f.bondForces(p, make([]vec.V, len(p)), nil) },
			func(p []vec.V) []vec.V { frc := make([]vec.V, len(p)); f.bondForces(p, frc, nil); return frc },
		},
		"angle": {
			func(p []vec.V) float64 { return f.angleForces(p, make([]vec.V, len(p)), nil) },
			func(p []vec.V) []vec.V { frc := make([]vec.V, len(p)); f.angleForces(p, frc, nil); return frc },
		},
		"dihedral": {
			func(p []vec.V) float64 { return f.dihedralForces(p, make([]vec.V, len(p)), nil) },
			func(p []vec.V) []vec.V { frc := make([]vec.V, len(p)); f.dihedralForces(p, frc, nil); return frc },
		},
		"improper": {
			func(p []vec.V) float64 { return f.improperForces(p, make([]vec.V, len(p)), nil) },
			func(p []vec.V) []vec.V { frc := make([]vec.V, len(p)); f.improperForces(p, frc, nil); return frc },
		},
		"nb": {
			func(p []vec.V) float64 {
				e := f.Nonbonded(p, f.BuildPairs(p, nil), make([]vec.V, len(p)), nil)
				return e.LJ + e.Elec
			},
			func(p []vec.V) []vec.V {
				frc := make([]vec.V, len(p))
				f.Nonbonded(p, f.BuildPairs(p, nil), frc, nil)
				return frc
			},
		},
		"p14": {
			func(p []vec.V) float64 {
				e := f.Pairs14(p, make([]vec.V, len(p)), nil)
				return e.LJ14 + e.Elec14
			},
			func(p []vec.V) []vec.V {
				frc := make([]vec.V, len(p))
				f.Pairs14(p, frc, nil)
				return frc
			},
		},
	}
	const h = 1e-5
	for name, tm := range terms {
		frc := tm.force(pos)
		bad := 0
		for i := range pos {
			for dim := 0; dim < 3; dim++ {
				orig := pos[i]
				bump := func(s float64) float64 {
					p := orig
					switch dim {
					case 0:
						p.X += s
					case 1:
						p.Y += s
					case 2:
						p.Z += s
					}
					pos[i] = p
					e := tm.energy(pos)
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
				if diff := got + grad; diff > 1e-3 || diff < -1e-3 {
					bad++
					if bad < 4 {
						t.Logf("%s atom %d dim %d: force %g vs -grad %g", name, i, dim, got, -grad)
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d bad components", name, bad)
		}
	}
}
