// Package chaos is the soak harness over the fault-injection layer: it
// generates seeded random fault scenarios (fault.RandomScenario), runs
// the resilient parallel MD under each one, and asserts the invariants a
// production run must never violate — termination without deadlock,
// finite energies, bitwise replay determinism across host-worker counts,
// and checkpoint/restart equivalence through the durable on-disk path.
// On a violation the failing scenario is shrunk to a minimal DSL
// reproducer (Shrink).
package chaos

import (
	"fmt"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/topol"
)

// Config sizes the soak workload. Zero fields take the defaults noted.
type Config struct {
	Seed        uint64 // base seed; run i uses ScenarioSeed(Seed, i)
	Steps       int    // MD steps per run (default 4, minimum 2)
	Nodes       int    // cluster nodes (default 4, minimum 2 so crashes are recoverable)
	CPUsPerNode int    // default 1
	Net         netmodel.Params
	Middleware  pmd.MiddlewareKind
	Decomp      pmd.DecompKind   // replicated (zero value) or domain decomposition
	Recovery    pmd.RecoveryKind // global rewind (zero value) or localized epoch replay
	Atoms       int              // solvated-box size (default 300)
	Workers     []int            // host-worker counts cross-checked bitwise (default {1, 4})

	CheckpointEvery int     // checkpoint cadence (default 2, exercising loss windows)
	RestartCost     float64 // virtual seconds per recovery (default 5)

	// Obs, when non-nil, receives soak counters (repro_chaos_*): scenarios
	// checked, injected faults, recoveries, lost virtual seconds and
	// invariant violations by name. Metrics never touch the simulated
	// runs, so the determinism invariants are unaffected.
	Obs *obs.Registry

	Logf func(format string, args ...interface{}) // optional progress logger
}

// InvariantError names the violated soak invariant.
type InvariantError struct {
	Name   string // terminates | finite-energies | recovery-fidelity | worker-determinism | checkpoint-restart
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("chaos: invariant %q violated: %s", e.Name, e.Detail)
}

// RunReport summarizes one passing soak run.
type RunReport struct {
	Index      int
	Seed       uint64
	DSL        string
	Faults     int
	Recoveries int
	Wall       float64
	Lost       float64
}

// Failure describes the first failing soak run, with the scenario shrunk
// to a minimal reproducer for the same invariant.
type Failure struct {
	Index    int
	Seed     uint64
	Scenario *fault.Scenario
	Minimal  *fault.Scenario
	Err      *InvariantError
}

// Harness holds the fixed workload every soak run shares.
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
	if cfg.Steps == 0 {
		cfg.Steps = 4
	}
	if cfg.Steps < 2 {
		return nil, fmt.Errorf("chaos: need Steps >= 2 (checkpoint/restart splits the run), got %d", cfg.Steps)
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("chaos: need Nodes >= 2 (a crash drops a node), got %d", cfg.Nodes)
	}
	if cfg.CPUsPerNode == 0 {
		cfg.CPUsPerNode = 1
	}
	if cfg.Net.Name == "" {
		cfg.Net = netmodel.TCPGigE()
	}
	if cfg.Atoms == 0 {
		cfg.Atoms = 300
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 4}
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2
	}
	if cfg.RestartCost == 0 {
		cfg.RestartCost = 5
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if err := pmd.ValidateRecovery(cfg.Recovery, cfg.Decomp); err != nil {
		return nil, err
	}

	// A rank count the decomposition cannot tile on the workload's mesh is
	// rejected before any simulation, as the bare *pmd.DecompError so that
	// a caller can tell a bad configuration from a failed probe.
	sys, mdCfg, err := md.NewSolvatedWorkload(cfg.Atoms, cfg.Seed+1, func(pme md.PMEConfig) error {
		return pmd.ValidateDecomp(cfg.Decomp, cfg.Nodes*cfg.CPUsPerNode, pme)
	})
	if err != nil {
		return nil, err
	}

	h := &Harness{cfg: cfg, sys: sys, mdCfg: mdCfg, cost: cluster.PentiumIII1GHz()}
	probe, err := h.run(nil, cfg.Workers[0], "", 0)
	if err != nil {
		return nil, fmt.Errorf("chaos: healthy probe run failed: %w", err)
	}
	h.horizon = probe.Wall
	h.probe = probe
	return h, nil
}

// Horizon returns the healthy wall time scenarios are sized against.
func (h *Harness) Horizon() float64 { return h.horizon }

func (h *Harness) clusterCfg() cluster.Config {
	return cluster.Config{Nodes: h.cfg.Nodes, CPUsPerNode: h.cfg.CPUsPerNode, Net: h.cfg.Net, Seed: 1}
}

// run executes one resilient run of the shared workload under sc.
func (h *Harness) run(sc *fault.Scenario, workers int, ckptDir string, halt int) (*pmd.ResilientResult, error) {
	return pmd.RunResilient(h.clusterCfg(), h.cost, pmd.ResilientConfig{
		Config: pmd.Config{
			System:      h.sys,
			MD:          h.mdCfg,
			Steps:       h.cfg.Steps,
			Middleware:  h.cfg.Middleware,
			Decomp:      h.cfg.Decomp,
			HostWorkers: workers,
		},
		Scenario:        sc,
		CheckpointEvery: h.cfg.CheckpointEvery,
		RestartCost:     h.cfg.RestartCost,
		CheckpointDir:   ckptDir,
		HaltAfterStep:   halt,
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

// Check runs the full invariant pipeline for one scenario. It returns a
// report of the primary run, the first violated invariant (nil when all
// hold), and an infrastructure error (temp dirs, persistence) that is
// not a property of the scenario.
func (h *Harness) Check(sc *fault.Scenario) (RunReport, *InvariantError, error) {
	rep := RunReport{Seed: sc.Seed, DSL: sc.DSL(), Faults: len(sc.Faults)}

	// Invariant: the run terminates (no sim deadlock, crashes recover
	// within budget). The watchdog RunResilient arms for crash scenarios
	// turns a would-be deadlock into a typed error caught here.
	base, err := h.run(sc, h.cfg.Workers[0], "", 0)
	if err != nil {
		return rep, violated("terminates", "%v", err), nil
	}
	rep.Recoveries = len(base.Recoveries)
	rep.Wall = base.Wall
	rep.Lost = base.LostTotal()

	// Invariant: every reported energy is finite.
	if len(base.Energies) != h.cfg.Steps {
		return rep, violated("finite-energies", "got %d energy steps, want %d", len(base.Energies), h.cfg.Steps), nil
	}
	for i, e := range base.Energies {
		for _, v := range []float64{e.Potential(), e.Kinetic, e.Total()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return rep, violated("finite-energies", "step %d: non-finite energy %g", i, v), nil
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
			return rep, violated("recovery-fidelity", "against the fault-free run: %s", diff), nil
		}
	}

	// Invariant: replay determinism — the identical scenario on other
	// host-worker counts must reproduce energies, final positions, wall
	// clock and accounting bitwise.
	for _, w := range h.cfg.Workers[1:] {
		alt, err := h.run(sc, w, "", 0)
		if err != nil {
			return rep, violated("worker-determinism", "workers=%d failed: %v", w, err), nil
		}
		if alt.Wall != base.Wall {
			return rep, violated("worker-determinism", "workers=%d wall %g != %g", w, alt.Wall, base.Wall), nil
		}
		if diff := trajectoryDiff(alt.Energies, alt.Final, base); diff != "" {
			return rep, violated("worker-determinism", "workers=%d against workers=%d: %s", w, h.cfg.Workers[0], diff), nil
		}
		for i := range base.Acct {
			if alt.Acct[i] != base.Acct[i] {
				return rep, violated("worker-determinism", "workers=%d rank %d accounting differs", w, i), nil
			}
		}
	}

	// Invariant: checkpoint/restart equivalence through the durable path.
	// Crash specs are stripped for this leg: a resume shifts the scenario
	// clock by the redone steps, so a crash would interrupt a different
	// step than in the reference and legitimately change the figures.
	// Everything else (windows, flaps) shifts identically.
	if inv, err := h.checkDurable(stripCrashes(sc)); inv != nil || err != nil {
		return rep, inv, err
	}
	return rep, nil, nil
}

// checkDurable kills a run mid-flight at the durable layer's simulated
// kill point, resumes it from disk, and requires the stitched figures to
// match an uninterrupted reference bitwise.
func (h *Harness) checkDurable(sc *fault.Scenario) (*InvariantError, error) {
	dir, err := os.MkdirTemp("", "chaos-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Kill at the newest checkpoint boundary strictly before the end:
	// the resume leg asserts the run comes back from disk, which needs a
	// durable checkpoint to exist at the halt step (halting mid-cadence
	// leaves nothing on disk and the "resume" would be a fresh run). When
	// the cadence puts the first checkpoint at or past the final step
	// there is no interior boundary to kill at, so the leg cannot run.
	halt := (h.cfg.Steps - 1) / h.cfg.CheckpointEvery * h.cfg.CheckpointEvery
	if halt < 1 {
		h.cfg.Logf("checkpoint cadence %d leaves no interior boundary in %d steps; skipping durable leg",
			h.cfg.CheckpointEvery, h.cfg.Steps)
		return nil, nil
	}
	const name = "checkpoint-restart"
	w := h.cfg.Workers[0]
	ref, err := h.run(sc, w, "", 0)
	if err != nil {
		return violated(name, "reference run failed: %v", err), nil
	}
	halted, err := h.run(sc, w, dir, halt)
	if err != pmd.ErrHalted {
		return violated(name, "halted run: want ErrHalted, got %v", err), nil
	}
	resumed, err := h.run(sc, w, dir, 0)
	if err != nil {
		return violated(name, "resume failed: %v", err), nil
	}
	if resumed.Resumed == nil {
		return violated(name, "resume did not use the on-disk checkpoint"), nil
	}
	cut := resumed.Resumed.Step
	if cut > len(halted.Energies) {
		return violated(name, "resume step %d beyond halted prefix %d", cut, len(halted.Energies)), nil
	}
	stitched := append(append([]md.EnergyReport{}, halted.Energies[:cut]...), resumed.Energies...)
	if diff := trajectoryDiff(stitched, resumed.Final, ref); diff != "" {
		return violated(name, "halted and resumed against uninterrupted: %s", diff), nil
	}
	return nil, nil
}

// Soak generates and checks `runs` random scenarios. It stops at the
// first invariant violation, returning the shrunk failure; the error
// return is reserved for infrastructure problems.
func (h *Harness) Soak(runs int) ([]RunReport, *Failure, error) {
	count := func(name, help string, v float64, labels ...obs.Label) {
		if h.cfg.Obs != nil && v != 0 {
			h.cfg.Obs.Counter(name, help, labels...).Add(v)
		}
	}
	var reports []RunReport
	for i := 0; i < runs; i++ {
		seed := ScenarioSeed(h.cfg.Seed, i)
		sc := fault.RandomScenario(seed, h.horizon, h.cfg.Nodes, h.cfg.CPUsPerNode)
		rep, inv, err := h.Check(sc)
		if err != nil {
			return reports, nil, err
		}
		rep.Index = i
		count("repro_chaos_runs_total", "soak scenarios checked", 1)
		count("repro_chaos_faults_total", "faults injected across soak scenarios", float64(rep.Faults))
		count("repro_chaos_recoveries_total", "crash recoveries across soak scenarios", float64(rep.Recoveries))
		count("repro_chaos_lost_seconds_total", "virtual seconds lost to faults across soak scenarios", rep.Lost)
		if inv != nil {
			count("repro_chaos_violations_total", "invariant violations by name", 1, obs.L("invariant", inv.Name))
			h.cfg.Logf("run %d seed %d FAILED %s — shrinking", i, seed, inv.Name)
			minimal, serr := h.shrinkSameInvariant(sc, inv.Name)
			if serr != nil {
				return reports, nil, serr
			}
			return reports, &Failure{Index: i, Seed: seed, Scenario: sc, Minimal: minimal, Err: inv}, nil
		}
		reports = append(reports, rep)
		h.cfg.Logf("run %d seed %d ok: %d fault(s), %d recover(ies), wall %.3gs",
			i, seed, rep.Faults, rep.Recoveries, rep.Wall)
	}
	return reports, nil, nil
}

func (h *Harness) shrinkSameInvariant(sc *fault.Scenario, name string) (*fault.Scenario, error) {
	var infra error
	min := Shrink(sc, func(cand *fault.Scenario) bool {
		if infra != nil {
			return false
		}
		_, inv, err := h.Check(cand)
		if err != nil {
			infra = err
			return false
		}
		return inv != nil && inv.Name == name
	})
	return min, infra
}

// ScenarioSeed derives run i's scenario seed from the base seed with a
// splitmix64 finalizer, so neighbouring runs get uncorrelated streams.
func ScenarioSeed(base uint64, run int) uint64 {
	x := base + 0x9E3779B97F4A7C15*uint64(run+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
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
