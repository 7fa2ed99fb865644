package pmd

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/md"
)

// RecoveryKind selects how RunResilient repairs an injected rank crash.
type RecoveryKind int

const (
	// RecoveryGlobal is the classic checkpoint-restart: the crash drops
	// the whole node, every survivor rewinds to the newest globally
	// consistent checkpoint and the remaining steps re-run on a smaller
	// cluster. Lost work scales with rank count × checkpoint cadence.
	RecoveryGlobal RecoveryKind = iota
	// RecoveryLocal repairs only the crashed domain: a respawned rank
	// restores it at its newest completed neighbour-list rebuild epoch and
	// replays forward while the healthy ranks park at their next
	// collective. The repair is priced as RestartCost plus the crashed
	// rank's compute since that epoch plus the park; the bytes that would
	// restore the domain and re-send its halo inputs are not counted.
	// Rank numbering and cluster size never change, so the recovered
	// trajectory stays bitwise-identical to the fault-free run. Requires
	// the spatial domain decomposition.
	RecoveryLocal
)

func (k RecoveryKind) String() string {
	if k == RecoveryLocal {
		return "local"
	}
	return "global"
}

// ParseRecovery parses a -recovery flag value. The empty string selects
// the classic global rewind.
func ParseRecovery(s string) (RecoveryKind, error) {
	switch s {
	case "", "global":
		return RecoveryGlobal, nil
	case "local":
		return RecoveryLocal, nil
	}
	return 0, fmt.Errorf("pmd: unknown recovery strategy %q (want global or local)", s)
}

// ValidateRecovery rejects a recovery strategy the decomposition cannot
// carry out, with a *ConfigError.
func ValidateRecovery(rk RecoveryKind, dk DecompKind) error {
	if rk == RecoveryLocal && dk != DecompDomain {
		return &ConfigError{"Recovery", "localized recovery repairs spatial domains; it needs Decomp == DecompDomain"}
	}
	return nil
}

// ResilientConfig configures a fault-tolerant parallel run: a base Config
// plus a fault scenario and the checkpoint-restart policy.
type ResilientConfig struct {
	Config

	// Scenario is the fault script; nil runs healthy (RunResilient then
	// degenerates to Run plus accounting plumbing).
	Scenario *fault.Scenario

	// CheckpointEvery takes a snapshot every k completed steps; 0 means
	// the default of 1, negative values are a *ConfigError. Larger values
	// lose more work per crash.
	CheckpointEvery int

	// RestartCost is the virtual time charged per recovery (failure
	// detection, job relaunch, checkpoint distribution).
	RestartCost float64

	// MaxRestarts bounds crash-recovery attempts; 0 means one per crash
	// spec in the scenario.
	MaxRestarts int

	// CheckpointDir, when non-empty, persists checkpoints durably: a ring
	// of the last KeepCheckpoints checksummed checkpoint files plus a
	// per-step progress journal (see internal/md durable format). If the
	// directory already holds a valid checkpoint the run RESUMES from the
	// newest one that validates, booking the killed process's
	// post-checkpoint work as Lost; corrupt newer files are skipped.
	CheckpointDir string

	// KeepCheckpoints is the on-disk ring depth; 0 means md.DefaultKeep,
	// negative values are a *ConfigError.
	KeepCheckpoints int

	// HaltAfterStep > 0 simulates a kill -9 for tests and examples: the
	// run stops right after that global step completes (persistence is
	// current up to it, nothing later reaches disk) and RunResilient
	// returns the partial result with ErrHalted. Requires CheckpointDir.
	HaltAfterStep int

	// Preempt, when non-nil, is polled once per globally completed step
	// on the scheduler thread (it must not block). The first time it
	// returns true the run latches the NEXT step boundary as the
	// preemption point: every rank checkpoints there, the checkpoint is
	// persisted to CheckpointDir, and RunResilient returns the completed
	// prefix with ErrPreempted. A later invocation with the same
	// CheckpointDir resumes from that checkpoint with zero lost work —
	// this is the graceful-preemption hook the serve layer uses to yield
	// a long run to waiting tenants. Requires CheckpointDir.
	Preempt func() bool

	// Recovery selects the crash-repair strategy. RecoveryLocal requires
	// Decomp == DecompDomain (the repair unit is a spatial domain).
	Recovery RecoveryKind

	// TuneCheckpoint enables the failure-rate-aware cadence tuner: after
	// the first observed crash the durable-checkpoint interval is re-set
	// from the online MTTF estimate via the Young/Daly formula
	// (CheckpointEvery remains the zero-failure fallback). Requires
	// CheckpointCost > 0 — the formula needs the checkpoint's price.
	TuneCheckpoint bool

	// CheckpointCost is the virtual seconds one durable checkpoint costs,
	// the C in the Young/Daly interval √(2·C·MTTF). Negative values are a
	// *ConfigError.
	CheckpointCost float64
}

// ConfigError reports an invalid ResilientConfig field.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("pmd: invalid %s: %s", e.Field, e.Msg) }

// ErrHalted marks a run stopped at the configured HaltAfterStep kill
// point. The result returned alongside it holds the completed prefix; a
// follow-up RunResilient with the same CheckpointDir resumes from disk.
var ErrHalted = errors.New("pmd: run halted at the simulated kill point")

// ErrPreempted marks a run stopped at a Preempt-requested checkpoint
// boundary. Unlike ErrHalted (a simulated crash that loses the work past
// the last periodic checkpoint), a preempted run checkpoints the exact
// boundary it stops at: resuming with the same CheckpointDir loses
// nothing. The result alongside holds the completed prefix.
var ErrPreempted = errors.New("pmd: run preempted at a checkpoint boundary")

// validate checks the resilience knobs and applies defaults in place.
func (rcfg *ResilientConfig) validate() error {
	if err := ValidateRecovery(rcfg.Recovery, rcfg.Decomp); err != nil {
		return err
	}
	switch {
	case rcfg.CheckpointEvery < 0:
		return &ConfigError{"CheckpointEvery",
			fmt.Sprintf("must be >= 0 (0 means the default of 1), got %d", rcfg.CheckpointEvery)}
	case rcfg.KeepCheckpoints < 0:
		return &ConfigError{"KeepCheckpoints",
			fmt.Sprintf("must be >= 0 (0 means the default of %d), got %d", md.DefaultKeep, rcfg.KeepCheckpoints)}
	case rcfg.RestartCost < 0:
		return &ConfigError{"RestartCost", fmt.Sprintf("must be >= 0, got %g", rcfg.RestartCost)}
	case rcfg.MaxRestarts < 0:
		return &ConfigError{"MaxRestarts", fmt.Sprintf("must be >= 0, got %d", rcfg.MaxRestarts)}
	case rcfg.HaltAfterStep < 0:
		return &ConfigError{"HaltAfterStep", fmt.Sprintf("must be >= 0, got %d", rcfg.HaltAfterStep)}
	case rcfg.HaltAfterStep > 0 && rcfg.CheckpointDir == "":
		return &ConfigError{"HaltAfterStep", "simulated kill needs CheckpointDir to resume from"}
	case rcfg.Preempt != nil && rcfg.CheckpointDir == "":
		return &ConfigError{"Preempt", "graceful preemption needs CheckpointDir to park the run in"}
	case rcfg.CheckpointCost < 0:
		return &ConfigError{"CheckpointCost", fmt.Sprintf("must be >= 0, got %g", rcfg.CheckpointCost)}
	case rcfg.TuneCheckpoint && rcfg.CheckpointCost <= 0:
		return &ConfigError{"TuneCheckpoint", "the Young/Daly interval needs CheckpointCost > 0"}
	}
	if rcfg.CheckpointEvery == 0 {
		rcfg.CheckpointEvery = 1
	}
	return nil
}
