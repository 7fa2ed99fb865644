package pmd

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/md"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// Tape memoizes the physics of one workload's runs. A workload (system and
// MD config) has one trajectory: the sequential engine's (md.Engine). The
// rank count, the decomposition, networks, middleware, collective
// algorithms, CPUs per node and fault scenarios change when work happens
// and how long it takes, never what is computed: a rank charges its work
// from its partitions' sizes and the step's pair list, and its messages
// from its layouts, never from a force value. Every run over a tape is
// therefore served one sequence of states, at any rank count and under
// either decomposition, and only the first run to reach a step executes
// the MD kernels for it, which is where nearly all host time goes. Beside
// the trajectory a tape keeps, per rank count, the domain decomposition's
// reading of it (the geometry, the ownership epochs and the migration
// matrices).
//
// The trajectory is advanced by one md.Engine, built with KernelWorkers =
// Config.HostWorkers by the first evaluation that needs it and dropped
// whenever no run over the tape is in flight; a later run that extends
// the trajectory builds another, restored to the newest state.
//
// Every run is a run over a tape: one the run is given (Config.Tape) keeps
// every step's state and epoch; a run given none, or one with a checkpoint
// start (Init), which needs the physics executed from that state, runs
// over a private tape of its own, whose engine is restored to Init and
// which keeps a two-step window. A longer run extends the trajectory, and
// a run that fails leaves only fully evaluated steps behind.
//
// Concurrency: a step's state is published in two steps, its list
// generation (listed) and then the whole state (done); see snapshot. Step
// s is evaluated inside its once, by whichever evalAhead goroutine of the
// runs over the tape, or Positions reader, reaches it first; the others
// wait on the once. A rank never evaluates: it waits in list only for the
// listed point, which the running evaluation passes before its forces, and
// for done in energies, at the end of its step's force pipeline. A
// goroutine enters step s only once step s-1 is done, so at most one
// evaluation is ever in flight (it alone drives the engine), and a
// published field is immutable while read.
//
// A tape must not outlive its workload: callers keep one tape per workload
// (system and MD config).
type Tape struct {
	// window marks a run's private tape, which keeps only the two newest
	// states and epochs (stale). That suffices: its ranks never lag one
	// another by more than a step, and its run-ahead evaluates a step only
	// once a rank has asked for the one before. A shared tape keeps every
	// state and epoch.
	window bool

	mu     sync.Mutex
	states map[int]*snapshot   // the trajectory, by step
	doms   map[int]*domainView // the domain views, by rank count
	eng    *md.Engine          // the engine at the newest evaluated state; nil when no run is in flight
	built  int                 // engines built so far
	runs   int                 // runs over the tape in flight
	ahead  int                 // the last step a window tape's run-ahead may evaluate: one past the latest a rank asked for, 0 before any
	wake   sync.Cond           // on mu; broadcast when ahead grows or a run-ahead stops

	complete atomic.Bool
	bytes    atomic.Int64 // what the kept states and the epochs hold
}

// NewTape returns an empty tape; the first run over it builds its engine.
func NewTape() *Tape { return &Tape{} }

// Complete reports whether a run over the tape has run all its steps.
func (t *Tape) Complete() bool { return t != nil && t.complete.Load() }

// Bytes reports what the tape holds: each evaluated step's arrays, each
// list generation's pair list (and a checkpoint start's list origin), and
// every domain view's geometry and epochs, their size matrices counted at
// their p×p capacity. The engine, held only while a run over the tape is
// in flight, is not counted. Safe to call while runs extend the tape.
func (t *Tape) Bytes() int64 { return t.bytes.Load() }

// open enters a run into t and returns the tape that serves it: t, or,
// when t is nil or the run starts from a checkpoint, a private window tape
// whose engine is restored to cfg.Init when that is set.
func (t *Tape) open(cfg Config) (*Tape, error) {
	if t == nil || cfg.Init != nil {
		t = &Tape{window: true}
		if cfg.Init != nil {
			e := newEngine(cfg)
			if err := e.Restore(cfg.Init); err != nil {
				return nil, err // a failed restore discards the private tape
			}
			t.eng, t.built = e, 1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.states == nil {
		t.states, t.doms = map[int]*snapshot{}, map[int]*domainView{}
		t.wake.L = &t.mu
	}
	t.runs++
	return t, nil
}

// newEngine builds the sequential engine over cfg's workload, its kernels
// on HostWorkers host cores.
func newEngine(cfg Config) *md.Engine {
	mdc := cfg.MD
	mdc.KernelWorkers = cfg.HostWorkers
	return md.NewEngine(cfg.System, mdc)
}

// domain returns the domain view of t's trajectory at rank count p.
func (t *Tape) domain(p int) *domainView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.doms[p]
	if v == nil {
		v = &domainView{t: t}
		t.doms[p] = v
	}
	return v
}

// stale returns the entry of a sequence — the steps' states, the list
// generations' epochs — that entering entry k lets go of: k-2 on a window
// tape, none (false) on a shared one.
func (t *Tape) stale(k int) (int, bool) { return k - 2, t.window }

// close ends a run opened over the tape, marking the tape complete when
// the run ran all its steps. The last run in flight drops the engine,
// keeping every evaluated step.
func (t *Tape) close(complete bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs--; t.runs == 0 {
		t.eng = nil
	}
	if complete {
		t.complete.Store(true)
	}
}

// snapshot is one step's immutable state of the trajectory. Step -1 is the
// initial force evaluation of velocity Verlet. Its arrays are copies of
// the engine's, so a rank still reading step s races with nothing while
// the run-ahead evaluates step s+1, and one state serves any number of
// runs at once.
//
// A state is published in two steps. Closing listed publishes pos and the
// list generation; closing done publishes the rest (vel, frc and rep),
// which the evaluator writes in between.
type snapshot struct {
	step         int
	once         sync.Once
	listed, done chan struct{}
	prev         *snapshot // cleared after evaluation

	pos, vel, frc []vec.V
	rep           md.EnergyReport

	listing
}

// listing is a state's neighbour list: its generation, the positions it
// was built at and its pairs, all inherited unchanged by the generation's
// later steps.
type listing struct {
	listGen    int
	listOrigin []vec.V
	pairs      []space.Pair
	rebuilt    bool
	distEvals  int64 // full list-search cost when rebuilt
}

// list returns step's state once its positions and list generation are
// published: every run has an evalAhead goroutine that evaluates each of
// its steps, so a rank never evaluates; it waits only for the list while
// the forces are still being computed, and for the rest in energies.
func (t *Tape) list(step int) *snapshot {
	st := t.lookup(step, true)
	<-st.listed
	return st
}

// energies waits for st to be wholly published and returns its energies.
func (st *snapshot) energies() md.EnergyReport {
	<-st.done
	return st.rep
}

// lookup returns step's state, entering an unevaluated one if there is
// none yet and letting go of the one the tape no longer keeps. A rank's
// lookup lets the run-ahead evaluate the step after step.
func (t *Tape) lookup(step int, rank bool) *snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank && step >= t.ahead {
		t.ahead = step + 1
		t.wake.Broadcast()
	}
	st, ok := t.states[step]
	if !ok {
		st = &snapshot{step: step, listed: make(chan struct{}), done: make(chan struct{})}
		if step > -1 {
			st.prev = t.states[step-1]
		}
		t.states[step] = st
		if old, ok := t.stale(step); ok {
			delete(t.states, old)
		}
	}
	return st
}

// onListed, when set (by tests), runs on the evaluating goroutine between
// a state's list publication and its forces.
var onListed func(t *Tape, step int)

// evalAhead evaluates states -1 … cfg.Steps-1 in order on a goroutine of
// its own, so step s+1's physics runs on other cores while the ranks
// simulate step s, and a rank that asks for a step's list (list) finds the
// step being evaluated; where another run's goroutine reached a step
// first, this one waits on that step's once. On a window tape the
// goroutine evaluates step s > 0 only once a rank has asked for step s-1,
// so it never lets go of a state a rank has yet to read (entering step 0
// lets go of none). The returned stop ends the goroutine once its
// evaluation in flight, if any, is done, and waits for it: after stop,
// every state of t is fully evaluated.
func (t *Tape) evalAhead(cfg Config) (stop func()) {
	quit := false // under t.mu
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := -1; s < cfg.Steps && t.await(s, &quit); s++ {
			t.eval(t.lookup(s, false), cfg)
		}
	}()
	return func() {
		t.mu.Lock()
		quit = true
		t.wake.Broadcast()
		t.mu.Unlock()
		<-done
	}
}

// Positions returns the workload's first steps+1 frames, frame k the
// positions after k steps: the pos of states -1 … steps-1 of t's
// trajectory (of a private window tape when t is nil), evaluated in order
// where no run has reached them. The slices are the states' own, shared
// and read-only. Like evalAhead, it enters step s only once step s-1 is
// done.
func (t *Tape) Positions(cfg Config, steps int) ([][]vec.V, error) {
	t, err := t.open(cfg)
	if err != nil {
		return nil, err
	}
	defer t.close(false)
	frames := make([][]vec.V, 0, steps+1)
	for s := -1; s < steps; s++ {
		st := t.lookup(s, false)
		t.eval(st, cfg)
		frames = append(frames, st.pos)
	}
	return frames, nil
}

// await waits, on a window tape, until the run-ahead may evaluate step or
// quit is set, and reports whether it goes on.
func (t *Tape) await(step int, quit *bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.window && step > t.ahead && !*quit {
		t.wake.Wait()
	}
	return !*quit
}

// eval evaluates st exactly once across the run-ahead goroutines of every
// run over t: Engine.Step's velocity Verlet (Engine.ComputeForces' alone
// at step -1), with the list managed first so the state's list generation
// is published before its forces. Step s > -1 requires step s-1 to have
// been evaluated.
func (t *Tape) eval(st *snapshot, cfg Config) {
	st.once.Do(func() {
		e := t.engine(st.prev, cfg)
		in, n := e.Integrator(), len(e.Pos)
		if st.step > -1 {
			in.KickDrift(e.Pos, e.Vel, e.Frc, 0, n)
		}
		var wl work.Counters
		st.rebuilt = e.ManageList(&wl)
		st.pos = slices.Clone(e.Pos)
		switch {
		case st.rebuilt:
			st.listGen, st.listOrigin, st.distEvals = 0, st.pos, wl.ListDistEvals
			if st.prev != nil {
				st.listGen = st.prev.listGen + 1
			}
			st.pairs = e.ReleasePairs()
		case st.prev != nil:
			st.listGen, st.listOrigin, st.pairs = st.prev.listGen, st.prev.listOrigin, st.prev.pairs
		default: // a checkpoint start whose list is still valid: the list at its origin
			st.listOrigin, st.pairs = slices.Clone(cfg.Init.ListOrigin), e.ReleasePairs()
		}
		close(st.listed)
		if onListed != nil {
			onListed(t, st.step)
		}

		st.rep = e.ComputeForces(nil, nil)
		if st.step > -1 {
			in.Kick(e.Vel, e.Frc, 0, n)
			st.rep.Kinetic = e.KineticEnergy()
		}
		st.vel, st.frc = slices.Clone(e.Vel), slices.Clone(e.Frc)
		st.prev = nil
		t.bytes.Add(st.bytes())
		close(st.done)
	})
}

// engine returns t's engine, which holds prev's state (the initial state
// when prev is nil), building one restored to prev when no run in flight
// has built it.
func (t *Tape) engine(prev *snapshot, cfg Config) *md.Engine {
	t.mu.Lock()
	e := t.eng
	t.mu.Unlock()
	if e != nil {
		return e
	}
	e = newEngine(cfg)
	if prev != nil {
		if err := e.Restore(prev.checkpoint(cfg.MD.TimestepFS)); err != nil {
			panic("pmd: a state of the tape does not restore: " + err.Error())
		}
	}
	t.mu.Lock()
	t.eng = e
	t.built++
	t.mu.Unlock()
	return e
}

// checkpoint returns st as a checkpoint of an engine stepping dt fs, its
// arrays st's own.
func (st *snapshot) checkpoint(dt float64) *md.Checkpoint {
	return &md.Checkpoint{N: len(st.pos), TimestepFS: dt, Pos: st.pos, Vel: st.vel, Frc: st.frc, ListOrigin: st.listOrigin}
}

// bytes is what st holds beyond the state before it: its arrays and, when
// it starts a list generation or is the first state, the pair list and a
// list origin that is not its own positions.
func (st *snapshot) bytes() int64 {
	b := int64(unsafe.Sizeof(*st)) + vecBytes*int64(cap(st.pos)+cap(st.vel)+cap(st.frc))
	if st.rebuilt || st.step == -1 {
		b += pairBytes * int64(cap(st.pairs))
		if !st.rebuilt {
			b += vecBytes * int64(cap(st.listOrigin))
		}
	}
	return b
}

// The sizes Bytes counts in.
const (
	vecBytes  = int64(unsafe.Sizeof(vec.V{}))
	pairBytes = int64(unsafe.Sizeof(space.Pair{}))
)
