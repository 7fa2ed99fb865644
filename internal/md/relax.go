package md

import (
	"runtime"

	"repro/internal/space"
	"repro/internal/topol"
)

// ClampCutoffs shrinks the nonbonded ranges of cfg so they respect the
// minimum-image limit of the given box (needed for systems smaller than
// the default 12 Å list range). Configurations that already fit are
// returned unchanged.
func ClampCutoffs(cfg Config, box space.Box) Config {
	max := box.MaxCutoff()
	if cfg.FF.ListCutoff <= max {
		return cfg
	}
	cfg.FF.ListCutoff = max
	if cfg.FF.CutOff > max-1 {
		cfg.FF.CutOff = max - 1
	}
	if cfg.FF.CutOn > cfg.FF.CutOff-1.5 {
		cfg.FF.CutOn = cfg.FF.CutOff - 1.5
	}
	return cfg
}

// Relax minimizes the system's raw built geometry in place (steepest
// descent under the classic shift force field) and writes the relaxed
// coordinates back into sys.Pos. The synthetic builder produces strained
// serpentine turns; benchmark and dynamics runs call Relax once so the
// measured workload is a physically stable trajectory. Returns the final
// potential energy. The descent's kernels run on runtime.GOMAXPROCS(0)
// workers, which decides how many cores relax the system, never a result
// bit.
func Relax(sys *topol.System, steps int) float64 {
	cfg := ClampCutoffs(DefaultConfig(), sys.Box)
	cfg.Temperature = 0
	cfg.KernelWorkers = runtime.GOMAXPROCS(0)
	e := NewEngine(sys, cfg)
	final := e.Minimize(steps, 0.1)
	copy(sys.Pos, e.Pos)
	return final
}

// SolvatedPME is the PME setup of NewSolvatedWorkload(atoms, ·, ·), known
// from the atom count alone, before any box is built.
func SolvatedPME(atoms int) PMEConfig {
	mesh := topol.SolvatedMesh(atoms)
	return PMEConfig{Beta: 0.34, K1: mesh, K2: mesh, K3: mesh, Order: 4}
}

// NewSolvatedWorkload builds the solvated-box workload the fault bench,
// the chaos fuzz targets and the job server all run: a water box of about
// atoms atoms, relaxed, the cutoffs clamped to the box, smooth PME on the
// builder's recommended ≈1 Å mesh (β 0.34, order 4) and 300 K velocities;
// seed drives both the box builder and the velocity draw. accept, when
// non-nil, sees the PME setup before the box is relaxed, so a caller can
// reject a mesh its rank count cannot tile without paying for the
// relaxation; its error is returned as it is.
func NewSolvatedWorkload(atoms int, seed uint64, accept func(PMEConfig) error) (*topol.System, Config, error) {
	sys, _ := topol.NewSolvatedBox(atoms, seed)
	cfg := ClampCutoffs(PMEDefaultConfig(), sys.Box)
	cfg.PME = SolvatedPME(atoms)
	cfg.Temperature = 300
	cfg.Seed = seed
	if accept != nil {
		if err := accept(cfg.PME); err != nil {
			return nil, Config{}, err
		}
	}
	Relax(sys, 60)
	return sys, cfg, nil
}
