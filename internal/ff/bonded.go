package ff

import (
	"math"

	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// Bonded computes all bonded energies and accumulates forces into f (which
// must have length N and is NOT zeroed here). Periodic minimum images are
// applied to every internal displacement so molecules may span the wrap.
func (ff *ForceField) Bonded(pos []vec.V, frc []vec.V, w *work.Counters) Energies {
	var e Energies
	e.Bond = ff.bondForces(pos, frc, w)
	e.Angle = ff.angleForces(pos, frc, w)
	e.Dihedral = ff.dihedralForces(pos, frc, w)
	e.Improper = ff.improperForces(pos, frc, w)
	return e
}

func (ff *ForceField) bondForces(pos, frc []vec.V, w *work.Counters) float64 {
	box := ff.Sys.Box
	var e float64
	for bi := range ff.Sys.Bonds {
		b := ff.Sys.Bonds[bi]
		p := ff.bonds[bi]
		d := box.MinImage(pos[b[0]], pos[b[1]])
		r := d.Norm()
		dr := r - p.R0
		e += p.K * dr * dr
		if r > 0 {
			// F on atom b[0] = −dE/dr · r̂ where r̂ points from b[1] to b[0].
			fmag := -2 * p.K * dr / r
			fv := d.Scale(fmag)
			frc[b[0]] = frc[b[0]].Add(fv)
			frc[b[1]] = frc[b[1]].Sub(fv)
		}
	}
	if w != nil {
		w.BondTerms += int64(len(ff.Sys.Bonds))
	}
	return e
}

func (ff *ForceField) angleForces(pos, frc []vec.V, w *work.Counters) float64 {
	box := ff.Sys.Box
	var e float64
	for ai := range ff.Sys.Angles {
		a := ff.Sys.Angles[ai]
		p := ff.angles[ai]
		u := box.MinImage(pos[a[0]], pos[a[1]]) // j→i
		v := box.MinImage(pos[a[2]], pos[a[1]]) // j→k
		theta := vec.Angle(u, v)
		dt := theta - p.Theta0
		e += p.K * dt * dt

		cr := u.Cross(v)
		cn2 := cr.Norm2()
		if cn2 < 1e-16 {
			continue // collinear: force direction undefined, energy kept
		}
		cn := math.Sqrt(cn2)
		dedt := 2 * p.K * dt
		// dθ/dri = (u×p)/(|u|²|p|), dθ/drk = −(v×p)/(|v|²|p|), p = u×v.
		gi := u.Cross(cr).Scale(1 / (u.Norm2() * cn))
		gk := v.Cross(cr).Scale(-1 / (v.Norm2() * cn))
		gj := gi.Add(gk).Neg()
		frc[a[0]] = frc[a[0]].Sub(gi.Scale(dedt))
		frc[a[1]] = frc[a[1]].Sub(gj.Scale(dedt))
		frc[a[2]] = frc[a[2]].Sub(gk.Scale(dedt))
	}
	if w != nil {
		w.AngleTerms += int64(len(ff.Sys.Angles))
	}
	return e
}

// torsionGrad computes the dihedral angle φ for atoms (i,j,k,l) and the
// gradients dφ/dr for each atom, using minimum-image displacements.
// Returns ok=false for degenerate (collinear) geometries.
func torsionGrad(box space.Box, ri, rj, rk, rl vec.V) (phi float64, gi, gj, gk, gl vec.V, ok bool) {
	b1 := box.MinImage(rj, ri)
	b2 := box.MinImage(rk, rj)
	b3 := box.MinImage(rl, rk)
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	n1sq := n1.Norm2()
	n2sq := n2.Norm2()
	b2len := b2.Norm()
	if n1sq < 1e-16 || n2sq < 1e-16 || b2len < 1e-12 {
		return 0, vec.Zero, vec.Zero, vec.Zero, vec.Zero, false
	}
	m := n1.Cross(b2.Scale(1 / b2len))
	phi = math.Atan2(m.Dot(n2), n1.Dot(n2))

	// Signs match the atan2((n1×b̂2)·n2, n1·n2) convention above (verified
	// against central differences in the tests).
	gi = n1.Scale(b2len / n1sq)
	gl = n2.Scale(-b2len / n2sq)
	s12 := b1.Dot(b2) / (b2len * b2len)
	s32 := b3.Dot(b2) / (b2len * b2len)
	gj = gi.Scale(-(1 + s12)).Add(gl.Scale(s32))
	gk = gi.Scale(s12).Sub(gl.Scale(1 + s32))
	return phi, gi, gj, gk, gl, true
}

func (ff *ForceField) dihedralForces(pos, frc []vec.V, w *work.Counters) float64 {
	var e float64
	for di := range ff.Sys.Dihedrals {
		d := ff.Sys.Dihedrals[di]
		p := ff.dihs[di]
		phi, gi, gj, gk, gl, ok := torsionGrad(ff.Sys.Box, pos[d[0]], pos[d[1]], pos[d[2]], pos[d[3]])
		arg := float64(p.N)*phi - p.Delta
		e += p.K * (1 + math.Cos(arg))
		if !ok {
			continue
		}
		dedphi := -p.K * float64(p.N) * math.Sin(arg)
		frc[d[0]] = frc[d[0]].Sub(gi.Scale(dedphi))
		frc[d[1]] = frc[d[1]].Sub(gj.Scale(dedphi))
		frc[d[2]] = frc[d[2]].Sub(gk.Scale(dedphi))
		frc[d[3]] = frc[d[3]].Sub(gl.Scale(dedphi))
	}
	if w != nil {
		w.DihedralTerms += int64(len(ff.Sys.Dihedrals))
	}
	return e
}

func (ff *ForceField) improperForces(pos, frc []vec.V, w *work.Counters) float64 {
	var e float64
	for ii := range ff.Sys.Impropers {
		im := ff.Sys.Impropers[ii]
		p := ff.imprs[ii]
		phi, gi, gj, gk, gl, ok := torsionGrad(ff.Sys.Box, pos[im[0]], pos[im[1]], pos[im[2]], pos[im[3]])
		// Harmonic in the (wrapped) angle difference.
		dw := wrapAngle(phi - p.Omega0)
		e += p.K * dw * dw
		if !ok {
			continue
		}
		dedphi := 2 * p.K * dw
		frc[im[0]] = frc[im[0]].Sub(gi.Scale(dedphi))
		frc[im[1]] = frc[im[1]].Sub(gj.Scale(dedphi))
		frc[im[2]] = frc[im[2]].Sub(gk.Scale(dedphi))
		frc[im[3]] = frc[im[3]].Sub(gl.Scale(dedphi))
	}
	if w != nil {
		w.DihedralTerms += int64(len(ff.Sys.Impropers))
	}
	return e
}

// wrapAngle maps an angle difference into (−π, π].
func wrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
