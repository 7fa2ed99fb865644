// Package md implements the sequential molecular dynamics engine: velocity
// Verlet integration, neighbour-list management with a Verlet skin,
// steepest-descent minimization, and the classic/PME energy decomposition
// that the performance study measures.
package md

import (
	"fmt"
	"time"

	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/units"
	"repro/internal/vec"
	"repro/internal/work"
)

// PMEConfig selects the particle-mesh-Ewald treatment of long-range
// electrostatics.
type PMEConfig struct {
	Beta       float64 // Ewald splitting parameter (1/Å)
	K1, K2, K3 int     // mesh dimensions
	Order      int     // B-spline interpolation order
}

// PaperPME returns the paper's PME setup: 80×36×48 mesh, order 4.
func PaperPME() PMEConfig {
	return PMEConfig{Beta: 0.34, K1: 80, K2: 36, K3: 48, Order: 4}
}

// Config configures an Engine.
type Config struct {
	FF          ff.Options
	UsePME      bool
	PME         PMEConfig
	TimestepFS  float64 // integration step in femtoseconds
	Temperature float64 // initial velocity temperature (K); 0 = start at rest
	Seed        uint64  // velocity RNG stream

	// KernelWorkers sizes the kernel pool the nonbonded, FFT and PME hot
	// loops run their fixed shards on. It decides how many host cores do
	// the work, never a result bit: 0 and 1 both mean one worker running
	// the shards inline, and every value gives the same bytes.
	KernelWorkers int
}

// DefaultConfig is the paper's classic setup (shift truncation, no PME).
func DefaultConfig() Config {
	return Config{
		FF:          ff.DefaultOptions(),
		TimestepFS:  units.DefaultTimestepFS,
		Temperature: 300,
		Seed:        1,
	}
}

// PMEDefaultConfig is the paper's PME setup.
func PMEDefaultConfig() Config {
	c := DefaultConfig()
	c.FF = ff.PMEOptions()
	c.UsePME = true
	c.PME = PaperPME()
	c.FF.Beta = c.PME.Beta
	return c
}

// EnergyReport is the per-evaluation energy decomposition in kcal/mol,
// split the way the paper splits the calculation (§3.2): the classic part
// (bonded + cutoff nonbonded) and the PME part (mesh reciprocal sum and
// its counter-terms).
type EnergyReport struct {
	FF         ff.Energies // classic terms
	Recip      float64     // PME reciprocal energy
	Self       float64     // Ewald self correction
	ExclCorr   float64     // excluded-pair erf correction
	Background float64     // net-charge background correction
	Kinetic    float64
}

// Classic returns the classic-part potential energy.
func (r EnergyReport) Classic() float64 { return r.FF.Total() }

// PME returns the PME-part potential energy.
func (r EnergyReport) PME() float64 { return r.Recip + r.Self + r.ExclCorr + r.Background }

// Potential returns the total potential energy.
func (r EnergyReport) Potential() float64 { return r.Classic() + r.PME() }

// Total returns potential + kinetic.
func (r EnergyReport) Total() float64 { return r.Potential() + r.Kinetic }

// Engine advances one molecular system. It is not safe for concurrent use.
type Engine struct {
	Sys *topol.System
	Cfg Config
	FF  *ff.ForceField

	Pos []vec.V
	Vel []vec.V
	Frc []vec.V

	pme  *ewald.PME
	nbk  *ff.NonbondedKernel // table-driven pair kernel (exact when configured)
	pool *kernels.Pool       // the host cores the kernels' shards run on

	pairs      []space.Pair
	lister     *ff.PairLister // reusable list builder (no steady-state allocs)
	listOrigin []vec.V        // positions at last list build
	listFresh  bool

	// Host-time phase counters, installed by SetObs (nil otherwise). The
	// sequential engine runs on the host clock, so its §3.2 decomposition
	// is pure compute: classic and PME force-section seconds at rank 0.
	mClassic *obs.Counter
	mPME     *obs.Counter
	mEvals   *obs.Counter

	integ *Integrator
}

// NewEngine builds an engine over sys with its own copies of the
// coordinate arrays (the input system is not mutated).
func NewEngine(sys *topol.System, cfg Config) *Engine {
	if cfg.TimestepFS <= 0 {
		panic(fmt.Sprintf("md: invalid timestep %g fs", cfg.TimestepFS))
	}
	if cfg.UsePME && cfg.FF.ElecMode != ff.ElecEwaldDirect {
		panic("md: PME requires ff.ElecEwaldDirect for the direct-space sum")
	}
	e := &Engine{
		Sys: sys,
		Cfg: cfg,
		FF:  ff.New(sys, cfg.FF),
		Pos: append([]vec.V(nil), sys.Pos...),
		Vel: make([]vec.V, sys.N()),
		Frc: make([]vec.V, sys.N()),

		integ: newIntegrator(sys, cfg),
	}
	e.pool = kernels.NewPool(cfg.KernelWorkers)
	e.nbk = e.FF.NewNonbondedKernel()
	e.nbk.SetPool(e.pool)
	if cfg.UsePME {
		e.pme = ewald.NewPME(sys.Box, cfg.PME.Beta, cfg.PME.K1, cfg.PME.K2, cfg.PME.K3, cfg.PME.Order)
		e.pme.SetPool(e.pool)
	}
	if cfg.Temperature > 0 {
		e.InitVelocities(cfg.Temperature, cfg.Seed)
	}
	return e
}

// InitVelocities draws Maxwell–Boltzmann velocities at temperature T and
// removes the net momentum.
func (e *Engine) InitVelocities(tK float64, seed uint64) {
	r := rng.New(seed ^ 0x76656c6f63) // "veloc"
	var p vec.V
	var mass float64
	for i := range e.Vel {
		m := e.Sys.Mass(i)
		sd := units.ThermalVelocity(m, tK)
		e.Vel[i] = vec.New(r.NormalScaled(0, sd), r.NormalScaled(0, sd), r.NormalScaled(0, sd))
		p = p.Add(e.Vel[i].Scale(m))
		mass += m
	}
	drift := p.Scale(1 / mass)
	for i := range e.Vel {
		e.Vel[i] = e.Vel[i].Sub(drift)
	}
}

// skin returns the Verlet-list skin width.
func (e *Engine) skin() float64 { return e.Cfg.FF.ListCutoff - e.Cfg.FF.CutOff }

// Integrator returns the engine's velocity-Verlet arithmetic, for callers
// that advance their own copy of the state over a sub-range of the atoms.
func (e *Engine) Integrator() *Integrator { return e.integ }

// RefreshList rebuilds the neighbour list unconditionally.
func (e *Engine) RefreshList(w *work.Counters) {
	if e.lister == nil {
		e.lister = e.FF.NewPairLister()
	}
	e.pairs = e.lister.Build(e.Pos, w)
	if e.listOrigin == nil {
		e.listOrigin = make([]vec.V, len(e.Pos))
	}
	copy(e.listOrigin, e.Pos)
	e.listFresh = true
}

// ListWasRebuilt reports whether the last ComputeForces call rebuilt the
// neighbour list.
func (e *Engine) ListWasRebuilt() bool { return e.listFresh }

// PairCount returns the current neighbour-list length.
func (e *Engine) PairCount() int { return len(e.pairs) }

// SetObs installs host-time phase counters into reg: every ComputeForces
// call adds the wall-clock seconds of its classic and PME force sections
// to repro_phase_seconds_total{rank="0",phase,bucket="compute"}. The comm
// and sync series are created at zero so the exposition always carries the
// full §3.2 decomposition for the single host rank. A nil reg detaches.
func (e *Engine) SetObs(reg *obs.Registry) {
	if reg == nil {
		e.mClassic, e.mPME, e.mEvals = nil, nil, nil
		e.pool.SetObs(nil)
		return
	}
	// Parallel-kernel configuration: pool width, shard imbalance, and the
	// neighbour-list skin actually in effect (tuned or configured), so
	// /runz and run manifests show how a result was produced.
	e.pool.SetObs(reg)
	reg.Gauge("repro_skin_width_angstrom",
		"Neighbour-list skin width in effect (ListCutoff - CutOff).").Set(e.skin())
	help := "host seconds of the sequential engine per phase and time class (§3.2 decomposition; one rank, compute only)"
	rl := obs.L("rank", "0")
	for _, phase := range []string{"classic", "pme"} {
		pl := obs.L("phase", phase)
		c := reg.Counter("repro_phase_seconds_total", help, rl, pl, obs.L("bucket", "compute"))
		reg.Counter("repro_phase_seconds_total", help, rl, pl, obs.L("bucket", "comm"))
		reg.Counter("repro_phase_seconds_total", help, rl, pl, obs.L("bucket", "sync"))
		if phase == "classic" {
			e.mClassic = c
		} else {
			e.mPME = c
		}
	}
	e.mEvals = reg.Counter("repro_md_force_evals_total", "force evaluations performed")
}

// ComputeForces evaluates all forces and energies at the current
// positions, managing the neighbour list. Work is recorded into w
// (classic-phase work) and wPME (PME-phase work) when non-nil.
func (e *Engine) ComputeForces(w, wPME *work.Counters) EnergyReport {
	e.listFresh = false
	var t0 time.Time
	if e.mClassic != nil {
		t0 = time.Now()
	}
	if !e.integ.ListValid(e.Pos, e.listOrigin) {
		e.RefreshList(w)
	}
	vec.Fill(e.Frc, vec.Zero)
	var rep EnergyReport
	rep.FF = e.FF.Bonded(e.Pos, e.Frc, w)
	rep.FF.Add(e.nbk.Compute(e.Pos, e.pairs, e.Frc, w))
	rep.FF.Add(e.FF.Pairs14(e.Pos, e.Frc, w))
	if e.mClassic != nil {
		now := time.Now()
		e.mClassic.Add(now.Sub(t0).Seconds())
		t0 = now
	}
	if e.pme != nil {
		charges := e.FF.Charges()
		rep.Recip = e.pme.Recip(e.Pos, charges, e.Frc, wPME)
		rep.Self = ewald.SelfEnergy(charges, e.Cfg.PME.Beta)
		rep.ExclCorr = ewald.ExclusionCorrection(e.Sys.Box, e.Pos, charges, e.Sys.Excl, e.Cfg.PME.Beta, e.Frc, wPME)
		rep.Background = ewald.BackgroundEnergy(charges, e.Cfg.PME.Beta, e.Sys.Box.Volume())
		if e.mPME != nil {
			e.mPME.Add(time.Since(t0).Seconds())
		}
	}
	if e.mEvals != nil {
		e.mEvals.Inc()
	}
	rep.Kinetic = e.KineticEnergy()
	return rep
}

// KineticEnergy returns ½Σmv² in kcal/mol.
func (e *Engine) KineticEnergy() float64 { return e.integ.Kinetic(e.Vel, 0, len(e.Vel)) }

// DegreesOfFreedom returns the 3N degrees of freedom Temperature counts.
func (e *Engine) DegreesOfFreedom() int { return 3 * e.Sys.N() }

// Temperature returns the instantaneous temperature in K.
func (e *Engine) Temperature() float64 {
	return units.KineticTemperature(e.KineticEnergy(), e.DegreesOfFreedom())
}

// Step advances one velocity-Verlet step and returns the energies at the
// new positions. Forces must be current on entry (call ComputeForces once
// before the first Step); on exit they are current for the next Step.
func (e *Engine) Step(w, wPME *work.Counters) EnergyReport {
	n := len(e.Pos)
	e.integ.KickDrift(e.Pos, e.Vel, e.Frc, 0, n)
	rep := e.ComputeForces(w, wPME)
	e.integ.Kick(e.Vel, e.Frc, 0, n)
	if w != nil {
		w.Integrate += int64(2 * n)
	}
	rep.Kinetic = e.KineticEnergy()
	return rep
}

// Run performs n dynamics steps (after ensuring forces are initialized)
// and returns the per-step reports.
func (e *Engine) Run(n int, w, wPME *work.Counters) []EnergyReport {
	e.ComputeForces(w, wPME)
	reports := make([]EnergyReport, 0, n)
	for s := 0; s < n; s++ {
		reports = append(reports, e.Step(w, wPME))
	}
	return reports
}

// Minimize runs steepest descent with an adaptive step: accepted moves grow
// the step 20%, rejected moves halve it. Returns the final potential
// energy. Velocities are untouched.
func (e *Engine) Minimize(maxSteps int, initialStep float64) float64 {
	step := initialStep
	rep := e.ComputeForces(nil, nil)
	prev := rep.Potential()
	saved := make([]vec.V, len(e.Pos))
	for s := 0; s < maxSteps && step > 1e-8; s++ {
		copy(saved, e.Pos)
		// Normalized steepest-descent move capped at `step` per atom.
		var fmax float64
		for _, f := range e.Frc {
			if n := f.Norm(); n > fmax {
				fmax = n
			}
		}
		if fmax == 0 {
			break
		}
		scale := step / fmax
		for i := range e.Pos {
			e.Pos[i] = e.Pos[i].Add(e.Frc[i].Scale(scale))
		}
		rep = e.ComputeForces(nil, nil)
		if cur := rep.Potential(); cur < prev {
			prev = cur
			step *= 1.2
		} else {
			copy(e.Pos, saved)
			step *= 0.5
			// Forces correspond to rejected positions; restore.
			rep = e.ComputeForces(nil, nil)
		}
	}
	return prev
}
