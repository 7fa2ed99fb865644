package ff

import (
	"math"

	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// Nonbonded evaluates LJ (switched) and electrostatics (shifted or Ewald
// direct) over the given prefiltered pair list, accumulating forces into
// frc. Pairs beyond CutOff contribute nothing (the list carries a skin).
// It is the exact-math reference loop: programs run the tabulated
// NonbondedKernel, and the tests hold that kernel to this loop.
func (ff *ForceField) Nonbonded(pos []vec.V, pairs []space.Pair, frc []vec.V, w *work.Counters) Energies {
	var e Energies
	box := ff.Sys.Box
	cut2 := ff.Opts.CutOff * ff.Opts.CutOff
	var evals int64
	for _, p := range pairs {
		evals++
		d := box.MinImage(pos[p.I], pos[p.J])
		r2 := d.Norm2()
		if r2 > cut2 || r2 == 0 {
			continue
		}
		r := math.Sqrt(r2)

		elj, dlj := ff.ljKernel(p.I, p.J, r)
		s, dsdr := ff.switchFn(r)
		e.LJ += elj * s
		dedr := dlj*s + elj*dsdr

		qq := ff.charge[p.I] * ff.charge[p.J]
		if qq != 0 {
			ee, de := ff.elecKernel(r)
			e.Elec += qq * ee
			dedr += qq * de
		}

		fmag := -dedr / r
		fv := d.Scale(fmag)
		frc[p.I] = frc[p.I].Add(fv)
		frc[p.J] = frc[p.J].Sub(fv)
	}
	if w != nil {
		w.PairEvals += evals
	}
	return e
}

// Pairs14 evaluates the unscaled 1-4 interactions (removed from the main
// list) with no cutoff — 1-4 partners are always within bonded range.
func (ff *ForceField) Pairs14(pos []vec.V, frc []vec.V, w *work.Counters) Energies {
	var e Energies
	box := ff.Sys.Box
	for _, p := range ff.Sys.Pairs14 {
		d := box.MinImage(pos[p[0]], pos[p[1]])
		r := d.Norm()
		if r == 0 {
			continue
		}
		elj, dlj := ff.ljKernel(p[0], p[1], r)
		e.LJ14 += elj
		dedr := dlj

		qq := ff.charge[p[0]] * ff.charge[p[1]]
		if qq != 0 {
			ee, de := ff.elecKernel(r)
			e.Elec14 += qq * ee
			dedr += qq * de
		}

		fv := d.Scale(-dedr / r)
		frc[p[0]] = frc[p[0]].Add(fv)
		frc[p[1]] = frc[p[1]].Sub(fv)
	}
	if w != nil {
		w.PairEvals += int64(len(ff.Sys.Pairs14))
	}
	return e
}
