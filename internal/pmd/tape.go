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
// canonical evaluator, which keeps every step's state, and the domain view
// derived from them (the geometry, the ownership epochs and the migration
// matrices). The first run over the tape fixes its rank count; a run at
// another one, or with a checkpoint start (Init), which needs the physics
// executed from that state, bypasses the tape. A longer run extends the
// tape, and a run that fails leaves only fully evaluated steps behind.
//
// A tape must not outlive its workload: callers key tapes by rank count
// within one workload (system and MD config).
type Tape struct {
	once  sync.Once
	canon *canonical
	dom   *domainView

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

// open enters a run into the tape and returns the tape's evaluator, built
// from a fresh seed engine by the first run over it; nil, and the run
// bypasses the tape, when there is none, when the run starts from a
// checkpoint or when the tape belongs to another rank count.
func (t *Tape) open(p int, cfg Config) *canonical {
	if t == nil || cfg.Init != nil {
		return nil
	}
	t.once.Do(func() {
		t.canon = newCanonical(p, cfg, md.NewEngine(cfg.System, cfg.MD), &t.bytes)
		t.dom = &domainView{kept: &t.bytes}
	})
	if t.canon.p != p {
		return nil
	}
	t.mu.Lock()
	t.runs++
	t.mu.Unlock()
	return t.canon
}

// close ends a run opened over the tape. The last run in flight drops the
// evaluator's scratch, keeping every evaluated step; a later run that
// needs a step no run before it reached builds the scratch again.
func (t *Tape) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs--; t.runs == 0 {
		t.canon.dropScratch()
	}
}
