// Package chaos fuzzes the resilient parallel MD with fault scenarios and
// asserts the invariants a production run must never violate:
// termination without deadlock, finite energies, recovery fidelity,
// bitwise determinism across host-worker counts, and checkpoint/restart
// equivalence through the durable on-disk path. The package is test-only:
// FuzzReplicated and FuzzDomain decode their input into a scenario and
// run Harness.Check on it.
package chaos

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/topol"
)

// The workload every scenario runs: a solvated box on TCP under MPI, one
// CPU per node, checkpointed every 2 steps at 5 virtual seconds per
// recovery.
const (
	atoms           = 300
	checkpointEvery = 2
	restartCost     = 5
)

// Config is what the two fuzz targets vary.
type Config struct {
	Seed     uint64 // workload seed
	Steps    int    // MD steps per run (at least 3, so the durable leg has an interior checkpoint)
	Nodes    int    // cluster nodes, one rank each
	Decomp   pmd.DecompKind
	Recovery pmd.RecoveryKind
	Workers  []int // host-worker counts cross-checked bitwise
}

// InvariantError names the violated invariant.
type InvariantError struct {
	Name   string // terminates | finite-energies | recovery-fidelity | worker-determinism | checkpoint-restart
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("chaos: invariant %q violated: %s", e.Name, e.Detail)
}

// Harness holds the fixed workload every scenario of a target shares.
type Harness struct {
	cfg     Config
	sys     *topol.System
	mdCfg   md.Config
	cost    cluster.CostModel
	horizon float64              // healthy wall time, sizing scenario windows
	probe   *pmd.ResilientResult // the fault-free run, reference for recovery fidelity
}

// NewHarness builds the shared workload (solvated box, relaxed, PME) and
// probes a healthy run to size the scenario horizon.
func NewHarness(cfg Config) (*Harness, error) {
	// A rank count the decomposition cannot tile on the workload's mesh is
	// rejected before any simulation, as the bare *pmd.DecompError so that
	// a caller can tell a bad configuration from a failed probe.
	sys, mdCfg, err := md.NewSolvatedWorkload(atoms, cfg.Seed, func(pme md.PMEConfig) error {
		return pmd.ValidateDecomp(cfg.Decomp, cfg.Nodes, pme)
	})
	if err != nil {
		return nil, err
	}

	h := &Harness{cfg: cfg, sys: sys, mdCfg: mdCfg, cost: cluster.PentiumIII1GHz()}
	probe, err := h.run(nil, cfg.Workers[0], "", cfg.Steps)
	if err != nil {
		return nil, fmt.Errorf("chaos: healthy probe run failed: %w", err)
	}
	h.horizon = probe.Wall
	h.probe = probe
	return h, nil
}

// harnesses caches one harness per configuration for the test process,
// so the decode test and a fuzz target share one probe run.
var harnesses = map[*Config]*Harness{}

func harness(tb testing.TB, cfg *Config) *Harness {
	tb.Helper()
	h := harnesses[cfg]
	if h == nil {
		var err error
		if h, err = NewHarness(*cfg); err != nil {
			tb.Fatal(err)
		}
		harnesses[cfg] = h
	}
	return h
}

func (h *Harness) clusterCfg() cluster.Config {
	return cluster.Config{Nodes: h.cfg.Nodes, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: 1}
}

// run executes the first steps steps of the shared workload under sc.
func (h *Harness) run(sc *fault.Scenario, workers int, ckptDir string, steps int) (*pmd.ResilientResult, error) {
	return pmd.RunResilient(h.clusterCfg(), h.cost, pmd.ResilientConfig{
		Config: pmd.Config{
			System:      h.sys,
			MD:          h.mdCfg,
			Steps:       steps,
			Middleware:  pmd.MiddlewareMPI,
			Decomp:      h.cfg.Decomp,
			HostWorkers: workers,
		},
		Scenario:        sc,
		CheckpointEvery: checkpointEvery,
		RestartCost:     restartCost,
		CheckpointDir:   ckptDir,
		Recovery:        h.cfg.Recovery,
	})
}

// violated builds the error of a broken invariant.
func violated(name, format string, args ...interface{}) *InvariantError {
	return &InvariantError{name, fmt.Sprintf(format, args...)}
}

// trajectoryDiff names the first place a run's merged energies and final
// positions differ bitwise from the reference's, "" when they do not.
func trajectoryDiff(energies []md.EnergyReport, final *pmd.Result, ref *pmd.ResilientResult) string {
	if len(energies) != len(ref.Energies) {
		return fmt.Sprintf("%d energy steps, reference has %d", len(energies), len(ref.Energies))
	}
	for i := range energies {
		if energies[i] != ref.Energies[i] {
			return fmt.Sprintf("step %d: energies differ from the reference", i)
		}
	}
	if final == nil || ref.Final == nil {
		return "missing final state"
	}
	for i, p := range ref.Final.FinalPos {
		if final.FinalPos[i] != p {
			return fmt.Sprintf("atom %d: final position differs from the reference", i)
		}
	}
	return ""
}

// Check runs the full invariant pipeline for one scenario and returns the
// first violated invariant, nil when all hold.
func (h *Harness) Check(t testing.TB, sc *fault.Scenario) *InvariantError {
	// Invariant: the run terminates (no sim deadlock, crashes recover
	// within budget). The watchdog RunResilient arms for crash scenarios
	// turns a would-be deadlock into a typed error caught here.
	base, err := h.run(sc, h.cfg.Workers[0], "", h.cfg.Steps)
	if err != nil {
		return violated("terminates", "%v", err)
	}

	// Invariant: every reported energy is finite.
	if len(base.Energies) != h.cfg.Steps {
		return violated("finite-energies", "got %d energy steps, want %d", len(base.Energies), h.cfg.Steps)
	}
	for i, e := range base.Energies {
		for _, v := range []float64{e.Potential(), e.Kinetic, e.Total()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return violated("finite-energies", "step %d: non-finite energy %g", i, v)
			}
		}
	}

	// Invariant: recovery fidelity — localized epoch replay keeps the
	// cluster at full size through every fault, so the trajectory must be
	// bitwise identical to the fault-free run no matter what the scenario
	// injected. (Global rewind legitimately re-tiles onto fewer ranks after
	// a crash, which changes the physics partition, so the invariant only
	// applies to the localized strategy.)
	if h.cfg.Recovery == pmd.RecoveryLocal {
		if diff := trajectoryDiff(base.Energies, base.Final, h.probe); diff != "" {
			return violated("recovery-fidelity", "against the fault-free run: %s", diff)
		}
	}

	// Invariant: replay determinism — the identical scenario on other
	// host-worker counts must reproduce energies, final positions, wall
	// clock and accounting bitwise.
	for _, w := range h.cfg.Workers[1:] {
		alt, err := h.run(sc, w, "", h.cfg.Steps)
		if err != nil {
			return violated("worker-determinism", "workers=%d failed: %v", w, err)
		}
		if alt.Wall != base.Wall {
			return violated("worker-determinism", "workers=%d wall %g != %g", w, alt.Wall, base.Wall)
		}
		if diff := trajectoryDiff(alt.Energies, alt.Final, base); diff != "" {
			return violated("worker-determinism", "workers=%d against workers=%d: %s", w, h.cfg.Workers[0], diff)
		}
		for i := range base.Acct {
			if alt.Acct[i] != base.Acct[i] {
				return violated("worker-determinism", "workers=%d rank %d accounting differs", w, i)
			}
		}
	}

	// Invariant: checkpoint/restart equivalence through the durable path.
	// Crash specs are stripped for this leg: a resume shifts the scenario
	// clock by the redone steps, so a crash would interrupt a different
	// step than in the reference and legitimately change the figures.
	// Everything else (windows, flaps) shifts identically.
	return h.checkDurable(t.TempDir(), stripCrashes(sc))
}

// checkDurable kills a run mid-flight — a kill after step H is an H-step
// run on the same directory — resumes it from dir, and requires the
// stitched figures to match an uninterrupted reference bitwise.
func (h *Harness) checkDurable(dir string, sc *fault.Scenario) *InvariantError {
	// Kill at the newest checkpoint boundary strictly before the end:
	// the resume leg asserts the run comes back from disk, which needs a
	// durable checkpoint to exist at the halt step (halting mid-cadence
	// leaves nothing on disk and the "resume" would be a fresh run).
	halt := (h.cfg.Steps - 1) / checkpointEvery * checkpointEvery
	const name = "checkpoint-restart"
	w := h.cfg.Workers[0]
	ref, err := h.run(sc, w, "", h.cfg.Steps)
	if err != nil {
		return violated(name, "reference run failed: %v", err)
	}
	halted, err := h.run(sc, w, dir, halt)
	if err != nil {
		return violated(name, "halted run failed: %v", err)
	}
	resumed, err := h.run(sc, w, dir, h.cfg.Steps)
	if err != nil {
		return violated(name, "resume failed: %v", err)
	}
	if resumed.Resumed == nil {
		return violated(name, "resume did not use the on-disk checkpoint")
	}
	cut := resumed.Resumed.Step
	if cut > len(halted.Energies) {
		return violated(name, "resume step %d beyond halted prefix %d", cut, len(halted.Energies))
	}
	stitched := append(append([]md.EnergyReport{}, halted.Energies[:cut]...), resumed.Energies...)
	if diff := trajectoryDiff(stitched, resumed.Final, ref); diff != "" {
		return violated(name, "halted and resumed against uninterrupted: %s", diff)
	}
	return nil
}

// stripCrashes returns sc without its crash specs (same name/seed).
func stripCrashes(sc *fault.Scenario) *fault.Scenario {
	out := &fault.Scenario{Name: sc.Name, Seed: sc.Seed, Jitter: sc.Jitter}
	for _, f := range sc.Faults {
		if f.Kind != fault.KindCrash {
			out.Faults = append(out.Faults, f)
		}
	}
	return out
}

// Repro is the canonical faultbench reproduction command for a failing
// scenario, so a repro line pasted from a log carries every knob that
// shaped the run — including the decomposition and recovery strategy,
// which change which code path a crash exercises.
type Repro struct {
	DSL      string // fault-scenario DSL
	Seed     uint64
	Procs    int
	CPUs     int
	Net      string
	Steps    int
	Atoms    int
	Decomp   pmd.DecompKind
	Recovery pmd.RecoveryKind
}

// Line renders the faultbench invocation that replays the scenario.
func (r Repro) Line() string {
	return fmt.Sprintf("faultbench -spec '%s' -seed %d -p %d -cpus %d -net %s -steps %d -atoms %d -decomp %s -recovery %s",
		r.DSL, r.Seed, r.Procs, r.CPUs, r.Net, r.Steps, r.Atoms, r.Decomp, r.Recovery)
}

// An untileable rank count comes back as the bare *pmd.DecompError, not
// wrapped as a failed probe run.
func TestHarnessRejectsUntileableRanks(t *testing.T) {
	_, err := NewHarness(Config{Seed: 2, Nodes: 100})
	if de, ok := err.(*pmd.DecompError); !ok || de.Ranks != 100 {
		t.Fatalf("100 ranks on the 300-atom mesh: got %v, want a *pmd.DecompError", err)
	}
}
