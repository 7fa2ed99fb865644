package pmd

import (
	"repro/internal/md"
	"repro/internal/vec"
	"repro/internal/work"
)

// Tape memoizes the physics of one parallel run. The trajectory — and with
// it every work counter and every ownership-dependent size matrix — is a
// function of the workload (system, MD config, step count), the
// decomposition and the rank count only: networks, middleware, collective
// algorithms, CPUs per node and fault scenarios change when work happens
// and how long it takes, never what is computed or how many bytes move. A
// completed tape therefore lets any same-workload run of the same
// decomposition and rank count replay the recorded physics through the
// full event simulation instead of re-executing the MD kernels, which is
// where nearly all host time goes.
//
// What a tape holds depends on the decomposition it was recorded under:
//
//   - replicated: the work counters of every compute segment of every rank,
//     in program order, plus the per-step energies and the final positions;
//   - domain: every canonical snapshot of the run (positions, forces,
//     energies, ownership epochs, migration matrices) and the static
//     domain geometry. The ranks of a replay run the whole spatial pipeline
//     over them; only the canonical evaluation and its setup are skipped.
//
// A tape must not outlive its workload: callers key tapes by decomposition
// and rank count within one suite (fixed system, MD config and steps). Runs
// with a checkpoint start (Init) or an onStep hook bypass tapes entirely —
// their consumers need the physics actually executed. A
// complete tape is read-only: any number of replays may read it at once.
type Tape struct {
	p, steps int
	decomp   DecompKind

	// Replicated path.
	segs     [][]work.Counters // [rank] → per-segment counters, program order
	energies []md.EnergyReport
	finalPos []vec.V

	// Domain path.
	snaps []*canonState // step s at s+1, the initial evaluation first
	geo   *domainGeometry

	complete bool
}

// NewTape returns an empty tape; the first eligible run records into it.
func NewTape() *Tape { return &Tape{} }

// Complete reports whether the tape holds a full recording.
func (t *Tape) Complete() bool { return t != nil && t.complete }

// fits reports whether the tape was recorded for this run's shape.
func (t *Tape) fits(decomp DecompKind, p, steps int) bool {
	return t.decomp == decomp && t.p == p && t.steps == steps
}

// begin prepares the tape to record a run of p ranks over steps steps.
func (t *Tape) begin(decomp DecompKind, p, steps int) {
	t.reset()
	t.decomp, t.p, t.steps = decomp, p, steps
	if decomp == DecompReplicated {
		t.segs = make([][]work.Counters, p)
	}
}

// reset discards a partial recording (e.g. after a crashed attempt).
func (t *Tape) reset() { *t = Tape{} }

// finish seals a recording with what replayed runs must serve: the
// replicated path's energies and final positions, or the domain path's
// snapshots and geometry.
func (t *Tape) finish(res *Result, canon *canonical) {
	if t.decomp == DecompDomain {
		t.snaps, t.geo = canon.snapshots(t.steps), canon.geo
	} else {
		t.energies = append([]md.EnergyReport(nil), res.Energies...)
		t.finalPos = append([]vec.V(nil), res.FinalPos...)
	}
	t.complete = true
}

// record appends one segment's counters for the given rank. Each rank owns
// its slot and appends sequentially, so concurrent segment closures of
// different ranks never contend.
func (t *Tape) record(rank int, w work.Counters) {
	t.segs[rank] = append(t.segs[rank], w)
}
