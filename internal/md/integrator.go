package md

import (
	"repro/internal/topol"
	"repro/internal/units"
	"repro/internal/vec"
)

// Integrator is the tree's one velocity-Verlet arithmetic: the half-kick,
// the drift, the kinetic-energy term and the Verlet-skin check, each over
// an atom range [lo, hi). Engine.Step runs them over every atom, and so
// does the parallel engine's tape (internal/pmd), which steps an Engine
// with its list published between the drift and the forces.
//
// An Integrator is read-only after construction.
type Integrator struct {
	sys     *topol.System
	invMass []float64
	dt      float64 // timestep in AKMA units
	limit2  float64 // (skin/2)², the list-validity displacement bound
}

func newIntegrator(sys *topol.System, cfg Config) *Integrator {
	in := &Integrator{
		sys:     sys,
		invMass: make([]float64, sys.N()),
		dt:      units.FSToAKMA(cfg.TimestepFS),
	}
	for i := range in.invMass {
		in.invMass[i] = 1 / sys.Mass(i)
	}
	limit := (cfg.FF.ListCutoff - cfg.FF.CutOff) / 2
	in.limit2 = limit * limit
	return in
}

// KickDrift applies the first half-kick and the drift to atoms [lo, hi):
// v += F·dt/2m, then x += v·dt.
func (in *Integrator) KickDrift(pos, vel, frc []vec.V, lo, hi int) {
	half := 0.5 * in.dt
	for i := lo; i < hi; i++ {
		vel[i] = vel[i].Add(frc[i].Scale(half * in.invMass[i]))
		pos[i] = pos[i].Add(vel[i].Scale(in.dt))
	}
}

// Kick applies the second half-kick to atoms [lo, hi), with the forces at
// the drifted positions.
func (in *Integrator) Kick(vel, frc []vec.V, lo, hi int) {
	half := 0.5 * in.dt
	for i := lo; i < hi; i++ {
		vel[i] = vel[i].Add(frc[i].Scale(half * in.invMass[i]))
	}
}

// Kinetic returns ½Σmv² in kcal/mol over atoms [lo, hi), summed in index
// order.
func (in *Integrator) Kinetic(vel []vec.V, lo, hi int) float64 {
	var ke float64
	for i := lo; i < hi; i++ {
		ke += 0.5 * in.sys.Mass(i) * vel[i].Norm2()
	}
	return ke
}

// ListValid reports whether a neighbour list built at origin still covers
// every interaction at pos: no atom has moved more than half the skin. A
// nil origin means no list has been built, which is never valid.
func (in *Integrator) ListValid(pos, origin []vec.V) bool {
	if origin == nil {
		return false
	}
	for i := range pos {
		if vec.Dist2(pos[i], origin[i]) > in.limit2 {
			return false
		}
	}
	return true
}
