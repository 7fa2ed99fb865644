package pmd

import (
	"sync"
	"sync/atomic"

	"repro/internal/md"
)

// Tape memoizes the physics of the runs at one rank count. The trajectory
// — and with it every work counter and every ownership-dependent size
// matrix — is a function of the workload (system, MD config) and the rank
// count only: the decomposition, networks, middleware, collective
// algorithms, CPUs per node and fault scenarios change when work happens
// and how long it takes, never what is computed or how many bytes move.
// Every run over a tape therefore serves its ranks from one evaluation of
// that trajectory, under either decomposition, and only the first run to
// reach a step executes the MD kernels for it, which is where nearly all
// host time goes.
//
// A tape has two halves, each built on first request and shared from then
// on by every run at its rank count, concurrent ones included: the
// canonical evaluator and the domain view derived from its states (the
// geometry, the ownership epochs and the migration matrices). Every run is
// a run over a tape: one the run is given (Config.Tape) keeps every step's
// state and epoch, and its first run fixes its rank count; a run given
// none, or one of another rank count, or one with a checkpoint start
// (Init), which needs the physics executed from that state, runs over a
// private tape of its own, which keeps a two-step window. A longer run
// extends a tape, and a run that fails leaves only fully evaluated steps
// behind.
//
// A tape must not outlive its workload: callers key tapes by rank count
// within one workload (system and MD config).
type Tape struct {
	once  sync.Once
	canon *canonical
	dom   *domainView

	// window marks a run's private tape, which keeps only the two newest
	// snapshots and epochs (stale). That suffices: its ranks never lag one
	// another by more than a step, and its run-ahead evaluates a step only
	// once a rank has asked for the one before. A shared tape keeps every
	// snapshot and epoch.
	window bool

	mu   sync.Mutex
	runs int // runs over the tape in flight

	complete atomic.Bool
	bytes    atomic.Int64 // what the kept steps and epochs hold
}

// NewTape returns an empty tape; the first eligible run over it builds it.
func NewTape() *Tape { return &Tape{} }

// Complete reports whether a run over the tape has run all its steps.
func (t *Tape) Complete() bool { return t != nil && t.complete.Load() }

// Bytes reports what the tape holds: every evaluated step's arrays, each
// list generation's pair list, and the domain view's epochs, its size
// matrices counted at their p×p capacity. The evaluation scratch, held
// only while a run over the tape is in flight, is not counted. Safe to
// call while runs extend the tape.
func (t *Tape) Bytes() int64 { return t.bytes.Load() }

// open enters a run at rank count p into t and returns the tape that
// serves it: t, built from a fresh seed engine by the first run over it,
// or, when t is nil, belongs to another rank count or the run starts from
// a checkpoint, a private window tape, whose seed engine is restored to
// cfg.Init when that is set.
func (t *Tape) open(p int, cfg Config) (*Tape, error) {
	if t == nil || cfg.Init != nil {
		t = &Tape{window: true}
	}
	var err error
	t.once.Do(func() {
		seed := md.NewEngine(cfg.System, cfg.MD)
		if cfg.Init != nil {
			err = seed.Restore(cfg.Init) // a failed restore discards the private tape
		}
		t.canon = newCanonical(p, cfg, seed, t)
		t.dom = &domainView{t: t}
	})
	if err != nil {
		return nil, err
	}
	if t.canon.p != p {
		return (*Tape)(nil).open(p, cfg)
	}
	t.mu.Lock()
	t.runs++
	t.mu.Unlock()
	return t, nil
}

// stale returns the entry of a sequence — the steps' snapshots, the list
// generations' epochs — that entering entry k lets go of: k-2 on a window
// tape, none (false) on a shared one.
func (t *Tape) stale(k int) (int, bool) { return k - 2, t.window }

// close ends a run opened over the tape, marking the tape complete when
// the run ran all its steps. The last run in flight drops the evaluator's
// scratch, keeping every evaluated step; a later run that needs a step no
// run before it reached builds the scratch again.
func (t *Tape) close(complete bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs--; t.runs == 0 {
		t.canon.dropScratch()
	}
	if complete {
		t.complete.Store(true)
	}
}
