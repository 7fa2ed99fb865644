package pmd

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/md"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// Tape memoizes the physics of one workload's runs. The trajectory at a
// rank count — and with it every work counter and every
// ownership-dependent size matrix — is a function of the workload (system,
// MD config) and the rank count only: the decomposition, networks,
// middleware, collective algorithms, CPUs per node and fault scenarios
// change when work happens and how long it takes, never what is computed
// or how many bytes move. Every run over a tape therefore serves its ranks
// from one evaluation of its rank count's trajectory, under either
// decomposition, and only the first run to reach a step executes the MD
// kernels for it, which is where nearly all host time goes.
//
// A tape holds once what every rank count starts from, its seed: the
// sequential engine's force field, integrator and initial state, the
// mesh's ψ table, and the step −1 pair list, whose pairs and order no
// rank count changes. Below the seed it holds one trajectory per rank
// count, built by the first run at that rank count and shared from then on
// by every run at it, concurrent ones included: the canonical evaluator
// and the domain view derived from its states (the geometry, the ownership
// epochs and the migration matrices). An evaluation, at whatever rank
// count, draws its scratch from the tape's free list and hands it back
// when done, so a workload builds only as many scratches as it has
// evaluations in flight; the free list is dropped whenever no run over the
// tape is in flight.
//
// Every run is a run over a tape: one the run is given (Config.Tape) keeps
// every step's state and epoch; a run given none, or one with a checkpoint
// start (Init), which needs the physics executed from that state, runs
// over a private tape of its own, which keeps a two-step window. A longer
// run extends a trajectory, and a run that fails leaves only fully
// evaluated steps behind.
//
// A tape must not outlive its workload: callers keep one tape per workload
// (system and MD config).
type Tape struct {
	once sync.Once
	seed *seed

	// window marks a run's private tape, which keeps only the two newest
	// snapshots and epochs (stale). That suffices: its ranks never lag one
	// another by more than a step, and its run-ahead evaluates a step only
	// once a rank has asked for the one before. A shared tape keeps every
	// snapshot and epoch.
	window bool

	mu     sync.Mutex
	canons map[int]*canonical // the trajectories, by rank count
	runs   int                // runs over the tape in flight
	free   []*scratch         // the scratch no evaluation holds
	built  int                // scratches built so far

	complete atomic.Bool
	bytes    atomic.Int64 // what the seed, the kept steps and the epochs hold
}

// NewTape returns an empty tape; the first run over it builds its seed.
func NewTape() *Tape { return &Tape{} }

// Complete reports whether a run over the tape has run all its steps.
func (t *Tape) Complete() bool { return t != nil && t.complete.Load() }

// Bytes reports what the tape holds: the seed's state, ψ table and pair
// list once, and for every rank count each evaluated step's arrays, each
// later list generation's pair list, and the domain view's epochs, its
// size matrices counted at their p×p capacity. The evaluation scratch,
// held only while a run over the tape is in flight, is not counted. Safe
// to call while runs extend the tape.
func (t *Tape) Bytes() int64 { return t.bytes.Load() }

// open enters a run at rank count p into t and returns the trajectory that
// serves it: t's at p, built by the first run at p over t's seed, which
// the first run over t builds from a fresh seed engine; or, when t is nil
// or the run starts from a checkpoint, the trajectory of a private window
// tape, whose seed engine is restored to cfg.Init when that is set.
func (t *Tape) open(p int, cfg Config) (*canonical, error) {
	if t == nil || cfg.Init != nil {
		t = &Tape{window: true}
	}
	var err error
	t.once.Do(func() { err = t.sow(cfg) })
	if err != nil {
		return nil, err // a failed restore discards the private tape
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.canons[p]
	if c == nil {
		c = newCanonical(p, cfg, t)
		if t.canons == nil {
			t.canons = map[int]*canonical{}
		}
		t.canons[p] = c
	}
	t.runs++
	return c, nil
}

// stale returns the entry of a sequence — the steps' snapshots, the list
// generations' epochs — that entering entry k lets go of: k-2 on a window
// tape, none (false) on a shared one.
func (t *Tape) stale(k int) (int, bool) { return k - 2, t.window }

// close ends a run opened over the tape, marking the tape complete when
// the run ran all its steps. The last run in flight drops the free list
// and every trajectory's per-rank atom lists, keeping every evaluated
// step; a later run that needs a step no run before it reached builds a
// scratch again.
func (t *Tape) close(complete bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runs--; t.runs == 0 {
		t.free = nil
		for _, c := range t.canons {
			c.touched = nil
		}
	}
	if complete {
		t.complete.Store(true)
	}
}

// seed is what every trajectory of a tape starts from, built once by the
// tape's first run. The step −1 list generation and the ψ table are built
// by the first evaluation that needs them, on its scratch.
type seed struct {
	ffield           *ff.ForceField
	charges          []float64
	integ            *md.Integrator // the seed engine's
	seedPos, seedVel []vec.V
	seedOrigin       []vec.V // a checkpoint start's list origin, else nil

	psiOnce sync.Once
	psi     *ewald.Influence // the mesh's ψ, read by every lane

	listOnce sync.Once
	initList listing // step −1's
}

// sow builds t's seed from a fresh sequential engine over cfg's workload,
// restored to cfg.Init when that is set.
func (t *Tape) sow(cfg Config) error {
	e := md.NewEngine(cfg.System, cfg.MD)
	if cfg.Init != nil {
		if err := e.Restore(cfg.Init); err != nil {
			return err
		}
	}
	s := &seed{
		ffield:  e.FF,
		charges: e.FF.Charges(),
		integ:   e.Integrator(),
		seedPos: e.Pos,
		seedVel: e.Vel,
	}
	if init := cfg.Init; init != nil && len(init.ListOrigin) == cfg.System.N() {
		s.seedOrigin = append([]vec.V(nil), init.ListOrigin...)
	}
	t.seed = s
	t.bytes.Add(vecBytes * int64(len(s.seedPos)+len(s.seedVel)+len(s.seedOrigin)))
	return nil
}

// listing returns the step −1 list generation, built by the first
// evaluation that asks, with lister: a checkpoint start whose positions
// are still within the skin of its list origin lists the pairs at that
// origin, uncounted (the interrupted run already paid for that build);
// any other start builds a new generation at the seed positions. Every
// rank count shares it: a list's pairs and order depend on the positions
// alone.
func (t *Tape) listing(lister *ff.PairLister) listing {
	s := t.seed
	s.listOnce.Do(func() {
		l := listing{listGen: -1}
		if s.seedOrigin != nil {
			l = listing{listGen: 0, listOrigin: s.seedOrigin}
		}
		if s.integ.ListValid(s.seedPos, l.listOrigin) {
			l.pairs = lister.Append(l.listOrigin, nil, nil)
		} else {
			var wl work.Counters
			l = listing{listGen: l.listGen + 1, listOrigin: s.seedPos, pairs: lister.Append(s.seedPos, nil, &wl),
				rebuilt: true, distEvals: wl.ListDistEvals}
		}
		s.initList = l
		t.bytes.Add(pairBytes * int64(len(l.pairs)))
	})
	return s.initList
}

// scratch is one evaluation's working memory: its lanes, the assembled
// grid and the list builder.
type scratch struct {
	lanes    []lane
	fullGrid []complex128   // assembled grid / spectrum / potential
	lister   *ff.PairLister // scans on the evaluating trajectory's lanes
}

// lane is one host worker's scratch for the rank loops of an evaluation.
type lane struct {
	nbk     *ff.NonbondedKernel
	pme     *ewald.PME
	plan1d  *fft.Plan
	plan2d  *fft.Plan2D
	partial []vec.V   // the lane's rank's partial forces, zero outside its evaluation
	grid    []float64 // the lane's rank's spread contribution
	eC, cC  []float64 // ψ along the x-line in hand
	seen    []int32   // per atom, the last stamp that listed it
	stamp   int32
	atoms   []int32 // the atoms refs lists
	e       ff.Energies
	scalar  float64 // the lane's rank's recip or exclusion energy
}

// take hands an evaluation of c a scratch of at least c's lane count, off
// the free list or new, its list builder scanning on c's lanes, and builds
// the ψ table if no evaluation has.
func (t *Tape) take(c *canonical) *scratch {
	t.mu.Lock()
	var sc *scratch
	if n := len(t.free); n > 0 {
		sc, t.free = t.free[n-1], t.free[:n-1]
	} else {
		sc = &scratch{}
		t.built++
	}
	t.mu.Unlock()

	n, pmeCfg := c.sys.N(), c.pme
	g := pmeCfg.K1 * pmeCfg.K2 * pmeCfg.K3
	if sc.fullGrid == nil {
		sc.fullGrid = make([]complex128, g)
		sc.lister = t.seed.ffield.NewPairLister()
	}
	sc.lister.SetPool(c.ranks)
	for len(sc.lanes) < len(c.xOff)-1 {
		sc.lanes = append(sc.lanes, lane{
			nbk:     t.seed.ffield.NewNonbondedKernel(),
			pme:     ewald.NewPME(c.sys.Box, pmeCfg.Beta, pmeCfg.K1, pmeCfg.K2, pmeCfg.K3, pmeCfg.Order),
			plan1d:  fft.NewPlan(pmeCfg.K1),
			plan2d:  fft.NewPlan2D(pmeCfg.K2, pmeCfg.K3),
			partial: make([]vec.V, n),
			grid:    make([]float64, g),
			eC:      make([]float64, pmeCfg.K1),
			cC:      make([]float64, pmeCfg.K1),
			seen:    make([]int32, n),
			atoms:   make([]int32, n),
		})
	}
	s := t.seed
	s.psiOnce.Do(func() {
		s.psi = sc.lanes[0].pme.Influence()
		t.bytes.Add(psiBytes(pmeCfg))
	})
	return sc
}

// put returns an evaluation's scratch to the free list.
func (t *Tape) put(sc *scratch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.free = append(t.free, sc)
}

// psiBytes is what the ψ table of mesh pme holds: one float64 per
// frequency of the folded octant.
func psiBytes(pme md.PMEConfig) int64 {
	return 8 * int64(pme.K1/2+1) * int64(pme.K2/2+1) * int64(pme.K3/2+1)
}

// The sizes Bytes counts in.
const (
	vecBytes  = int64(unsafe.Sizeof(vec.V{}))
	pairBytes = int64(unsafe.Sizeof(space.Pair{}))
)
