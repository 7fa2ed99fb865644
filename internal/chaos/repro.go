package chaos

import (
	"fmt"

	"repro/internal/pmd"
)

// Repro is the canonical faultbench reproduction command for a failing
// soak scenario. Both the chaos CLI and the CI soak print failures
// through Line(), so a repro line pasted from a log always carries every
// knob that shaped the run — including the decomposition and recovery
// strategy, which change which code path a crash exercises.
type Repro struct {
	DSL      string // minimal fault-scenario DSL
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
