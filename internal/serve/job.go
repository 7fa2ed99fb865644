package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// SpecKeyVersion is the format version embedded in every canonical spec
// key. Bump it whenever Key()'s rendering (or the meaning of any field
// that feeds it) changes, so store entries written under the old scheme
// can never be mistaken for results of the new one — the same discipline
// as figures.CellKeyVersion, which governs the in-memory run cache this
// store extends onto disk. Version 3: the kernels lost their serial path,
// so a run or analysis stored under version 2 at KernelWorkers 0 holds
// bytes no server computes any more.
const SpecKeyVersion = 3

// JobKind selects what a job computes.
type JobKind string

const (
	// KindRun executes the resilient parallel MD on a solvated water box
	// and reports the final energy decomposition and a position digest.
	// The only long-running kind: it checkpoints, preempts and resumes.
	KindRun JobKind = "run"
	// KindSweep runs one short parallel MD per requested network and
	// reports the virtual wall time and comp/comm/sync split of each.
	KindSweep JobKind = "sweep"
	// KindAnalysis integrates a short sequential trajectory and computes
	// a structural observable (rdf or msd) over it.
	KindAnalysis JobKind = "analysis"
	// KindFigure regenerates one paper figure as CSV from the shared
	// myoglobin study.
	KindFigure JobKind = "figure"
)

// JobSpec is the client-facing description of one computation. The zero
// value of every optional field selects a deterministic default during
// Normalize, so two clients omitting the same fields land on the same
// canonical key.
type JobSpec struct {
	Kind JobKind `json:"kind"`

	// run / sweep / analysis workload knobs.
	Atoms int    `json:"atoms,omitempty"` // solvated-box size
	Steps int    `json:"steps,omitempty"` // MD steps
	Seed  uint64 `json:"seed,omitempty"`  // deterministic stream

	// run / sweep platform knobs.
	Procs  int    `json:"procs,omitempty"`  // ranks
	CPUs   int    `json:"cpus,omitempty"`   // CPUs per node (1 or 2)
	Net    string `json:"net,omitempty"`    // run: tcp, score, myrinet, fast
	MW     string `json:"mw,omitempty"`     // mpi or cmpi
	Decomp string `json:"decomp,omitempty"` // replicated or domain

	// sweep: the networks to compare (default: all four).
	Nets []string `json:"nets,omitempty"`

	// analysis: the observable to compute.
	Observable string `json:"observable,omitempty"` // rdf or msd

	// figure: the experiment id (core.FigureIDs) and protocol.
	Figure string `json:"figure,omitempty"`
	Quick  bool   `json:"quick,omitempty"`
}

// Normalize fills defaults in place and validates; the returned error is
// a *JobError of KindBadRequest listing every problem at once.
func (s *JobSpec) Normalize() error {
	var probs []string
	bad := func(format string, args ...interface{}) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	switch s.Kind {
	case KindRun, KindSweep, KindAnalysis, KindFigure:
	default:
		return Errf(KindBadRequest, "kind must be run, sweep, analysis or figure (got %q)", s.Kind)
	}

	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Kind != KindFigure {
		if s.Atoms == 0 {
			s.Atoms = 120
		}
		if s.Steps == 0 {
			s.Steps = 4
		}
		switch {
		case s.Atoms < 24 || s.Atoms > 4096:
			bad("atoms must be in [24, 4096] (got %d)", s.Atoms)
		case s.Steps < 1 || s.Steps > 512:
			bad("steps must be in [1, 512] (got %d)", s.Steps)
		}
	}

	switch s.Kind {
	case KindRun, KindSweep:
		if s.Procs == 0 {
			s.Procs = 4
		}
		if s.CPUs == 0 {
			s.CPUs = 1
		}
		if s.CPUs != 1 && s.CPUs != 2 {
			bad("cpus must be 1 or 2 (got %d)", s.CPUs)
		} else if s.Procs < 2*s.CPUs || s.Procs > 32 || s.Procs%s.CPUs != 0 {
			bad("procs must be a multiple of cpus spanning 2..32 ranks over at least 2 nodes (got %d)", s.Procs)
		}
		if s.MW == "" {
			s.MW = "mpi"
		}
		if s.MW != "mpi" && s.MW != "cmpi" {
			bad("mw must be mpi or cmpi (got %q)", s.MW)
		}
		if s.Decomp == "" {
			s.Decomp = "replicated"
		}
		if _, err := pmd.ParseDecomp(s.Decomp); err != nil {
			bad("decomp must be replicated or domain (got %q)", s.Decomp)
		}
	}

	switch s.Kind {
	case KindRun:
		if s.Net == "" {
			s.Net = "tcp"
		}
		if _, ok := netmodel.ByName(s.Net); !ok {
			bad("unknown net %q", s.Net)
		}
	case KindSweep:
		if len(s.Nets) == 0 {
			// The paper's factor space, by canonical short name (the
			// display names in netmodel.All are not lookup keys).
			s.Nets = []string{"tcp", "score", "myrinet"}
		}
		sort.Strings(s.Nets)
		for _, n := range s.Nets {
			if _, ok := netmodel.ByName(n); !ok {
				bad("unknown net %q in nets", n)
			}
		}
	case KindAnalysis:
		if s.Observable == "" {
			s.Observable = "rdf"
		}
		if s.Observable != "rdf" && s.Observable != "msd" {
			bad("observable must be rdf or msd (got %q)", s.Observable)
		}
	case KindFigure:
		if s.Figure == "" {
			bad("figure id is required")
		} else if fig, ok := figures.Lookup(s.Figure); !ok || !fig.HasData() {
			// Diagram-only figures have no data rows to serve.
			bad("figure must be one of %v minus the diagrams 1 and 2 (got %q)",
				core.FigureIDs(), s.Figure)
		}
		if s.Steps < 0 || s.Steps > 64 {
			bad("figure steps must be in [0, 64], 0 meaning the protocol default (got %d)", s.Steps)
		}
	}

	if len(probs) > 0 {
		return Errf(KindBadRequest, "%s", strings.Join(probs, "; "))
	}
	return nil
}

// Key renders the canonical versioned identity of the computation.
// Deliberately excluded: the submitting tenant, deadlines, and every
// host-side knob — results are bitwise identical across those, which is
// what makes cross-tenant coalescing and the shared store sound.
// Call only after Normalize.
func (s JobSpec) Key() string {
	switch s.Kind {
	case KindRun:
		return fmt.Sprintf("serve/v%d run atoms=%d steps=%d seed=%d p=%d cpus=%d net=%s mw=%s decomp=%s",
			SpecKeyVersion, s.Atoms, s.Steps, s.Seed, s.Procs, s.CPUs, s.Net, s.MW, s.Decomp)
	case KindSweep:
		return fmt.Sprintf("serve/v%d sweep atoms=%d steps=%d seed=%d p=%d cpus=%d mw=%s decomp=%s nets=%s",
			SpecKeyVersion, s.Atoms, s.Steps, s.Seed, s.Procs, s.CPUs, s.MW, s.Decomp, strings.Join(s.Nets, ","))
	case KindAnalysis:
		return fmt.Sprintf("serve/v%d analysis atoms=%d steps=%d seed=%d obs=%s",
			SpecKeyVersion, s.Atoms, s.Steps, s.Seed, s.Observable)
	case KindFigure:
		return fmt.Sprintf("serve/v%d figure id=%s quick=%t steps=%d seed=%d",
			SpecKeyVersion, s.Figure, s.Quick, s.Steps, s.Seed)
	}
	return fmt.Sprintf("serve/v%d invalid", SpecKeyVersion)
}

// JobID derives the job identifier from a canonical key. Identical specs
// map to the identical id — submission is idempotent and concurrent
// identical submissions coalesce onto one execution.
func JobID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Cost estimates the job's relative expense for fair-queue accounting
// (virtual service time; only ratios matter).
func (s JobSpec) Cost() float64 {
	switch s.Kind {
	case KindRun:
		return float64(s.Atoms*s.Steps*s.Procs) / 1e3
	case KindSweep:
		return float64(s.Atoms*s.Steps*s.Procs*len(s.Nets)) / 1e3
	case KindAnalysis:
		return float64(s.Atoms*s.Steps) / 1e3
	case KindFigure:
		// A figure sweeps many cells of the 3552-atom study.
		return 100
	}
	return 1
}
