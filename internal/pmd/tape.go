package pmd

// Tape memoizes the physics of one parallel run. The trajectory — and with
// it every work counter and every ownership-dependent size matrix — is a
// function of the workload (system, MD config, step count) and the rank
// count only: the decomposition, networks, middleware, collective
// algorithms, CPUs per node and fault scenarios change when work happens
// and how long it takes, never what is computed or how many bytes move. A
// completed tape therefore lets any same-workload run at the same rank
// count, under either decomposition, replay the recorded physics through
// the full event simulation instead of re-executing the MD kernels, which
// is where nearly all host time goes.
//
// A tape holds every canonical snapshot of the recorded run (positions,
// forces, energies, the per-rank work counters and each list generation's
// pair list) and the domain view derived from them: the geometry, the
// ownership epochs and the migration matrices, filled by a domain recorder
// or by the first domain replay and shared by every later one. The ranks
// of a replay run their whole pipeline over them; only the canonical
// evaluation and its setup are skipped.
//
// A tape must not outlive its workload: callers key tapes by rank count
// within one suite (fixed system, MD config and steps). Runs with a
// checkpoint start (Init) bypass tapes entirely — they need the physics
// actually executed from that state. A complete tape is read-only apart
// from its view, which locks: any number of replays may read it at once.
type Tape struct {
	p, steps int

	snaps []*canonState // step s at s+1, the initial evaluation first
	dom   *domainView

	complete bool
}

// NewTape returns an empty tape; the first eligible run records into it.
func NewTape() *Tape { return &Tape{} }

// Complete reports whether the tape holds a full recording.
func (t *Tape) Complete() bool { return t != nil && t.complete }

// fits reports whether the tape was recorded for this run's shape.
func (t *Tape) fits(p, steps int) bool { return t.p == p && t.steps == steps }

// begin prepares the tape to record a run of p ranks over steps steps.
func (t *Tape) begin(p, steps int) { *t = Tape{p: p, steps: steps, dom: &domainView{keep: true}} }

// reset discards a partial recording (e.g. after a crashed attempt).
func (t *Tape) reset() { *t = Tape{} }

// finish seals a recording with the snapshots replayed runs serve, step s
// at index s+1.
func (t *Tape) finish(canon *canonical) {
	t.snaps = make([]*canonState, t.steps+1)
	for i := range t.snaps {
		t.snaps[i] = canon.states[i-1]
	}
	t.complete = true
}
