package pmd

import (
	"fmt"
	"sync"

	"repro/internal/cmpi"
	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/work"
)

const (
	bytesPerPoint     = 16 // complex spectrum values moved by the FFT transposes
	bytesPerRealPoint = 8  // real-valued charge / potential grids (CHARMM ships real grids)
	bytesPerCoord     = 24 // one vec.V
)

// energyPart is one rank's contribution to the step energies.
type energyPart struct {
	FF       ff.Energies
	Recip    float64
	ExclCorr float64
	Kinetic  float64
}

// shared is the data blackboard the ranks exchange real values through.
// The buffer tables below point at each rank's own working buffers; a
// rank sets its entry once, in newWorker, and refills the buffer in place
// every evaluation. The simulated collectives provide the ordering
// guarantees: a buffer is always filled before the collective that
// logically transports it and read only afterwards. Under host
// parallelism the same discipline makes the physics closures race-free: a
// closure only reads remote buffers whose writers completed before a
// collective this rank has already exited.
type shared struct {
	posBlocks [][]vec.V // owned position blocks
	partials  [][]vec.V // partial forces: classic, then PME, per evaluation
	energy    []energyPart
	grids     [][]float64 // full-size per-rank spread accumulations

	lists listCache

	// What every replica would compute identically at the combine points of
	// a force evaluation is computed once, by the first rank to get there,
	// in the same rank-ascending order: frcSum holds the classic force
	// total of evaluation classicEval, and from the PME combine of
	// evaluation totalEval on, the classic+PME total; the other ranks copy
	// it. Both combines are inline code, so one rank at a time is in them,
	// and the collectives between two combine points keep a lagging reader
	// ahead of the next writer.
	frcSum                 []vec.V
	classicEval, totalEval int

	// mesh is the replicated run's one K1×K2×K3 complex PME mesh, which
	// every rank transforms in place. Each stage of an evaluation touches
	// only the rank's own part: the slab sum and the forward and inverse
	// 2-D FFTs its own x-planes, the spectrum segment its own y-lines
	// across every plane; the interpolation reads the whole mesh. The
	// collective before each stage — the grid all-to-all, the two dense
	// transposes, the potential all-gather — is one no rank leaves until
	// every rank has finished the stage before. (The dense Alltoallv
	// exchanges zero-byte blocks too, so this holds when p > K2 leaves
	// ranks without y-lines.) The PME all-reduce separates an evaluation's
	// interpolation from the next evaluation's slab sum.
	mesh []complex128

	// pool is the host-core kernel pool shared by every rank's kernels.
	// Sharing one pool bounds the total helper-goroutine concurrency of an
	// attempt regardless of the simulated rank count; each rank's kernel
	// keeps its own shard scratch, so concurrent Runs never alias state.
	pool *kernels.Pool

	// canon is the shared canonical evaluator of the domain decomposition
	// (nil on the replicated path). See canonical.go.
	canon *canonical
}

// listCache deduplicates neighbour-list construction across ranks: every
// replica is bitwise identical, so all ranks would build the same list at
// the same step. The first rank to need a generation builds it (inside its
// classic compute segment); the others block on the same sync.Once and
// share the result. Generations never overlap — a rank can only enter the
// classic segment of step s after every rank passed the collectives of
// step s−1 — so entries are built one at a time, and when any rank asks
// for generation g every rank has already fetched g−1 and holds its own
// reference to it. The cache therefore keeps the newest generation only.
type listCache struct {
	mu  sync.Mutex
	gen int
	e   *listEntry // generation gen; nil before the first build
}

type listEntry struct {
	once      sync.Once
	pairs     []space.Pair
	distEvals int64
}

// sharedList returns the neighbour list of generation gen, building it
// exactly once per run across all ranks.
func (sh *shared) sharedList(gen int, ffield *ff.ForceField, pos []vec.V) ([]space.Pair, int64) {
	sh.lists.mu.Lock()
	e := sh.lists.e
	if e == nil || sh.lists.gen != gen {
		e = &listEntry{}
		sh.lists.gen, sh.lists.e = gen, e
	}
	sh.lists.mu.Unlock()
	e.once.Do(func() {
		var wl work.Counters
		e.pairs = ffield.BuildPairs(pos, &wl)
		e.distEvals = wl.ListDistEvals
	})
	return e.pairs, e.distEvals
}

// newShared builds the run's blackboard. A domain run that evaluates its
// physics (seedEngine non-nil) gets the canonical evaluator, which keeps
// every snapshot when the run records a tape.
func newShared(p int, cfg Config, seedEngine *md.Engine, tape *Tape) *shared {
	sh := &shared{
		posBlocks: make([][]vec.V, p),
		partials:  make([][]vec.V, p),
		energy:    make([]energyPart, p),
		grids:     make([][]float64, p),
	}
	sh.pool = kernels.NewPool(cfg.MD.KernelWorkers)
	if cfg.Decomp == DecompReplicated && seedEngine != nil {
		sh.frcSum = make([]vec.V, cfg.System.N())
		sh.mesh = make([]complex128, cfg.MD.PME.K1*cfg.MD.PME.K2*cfg.MD.PME.K3)
	}
	if cfg.Decomp == DecompDomain && seedEngine != nil {
		sh.canon = newCanonical(p, cfg, sh, seedEngine, tape != nil)
	}
	return sh
}

// decomposition is the strategy a rank drives its step pipeline through.
// The shared run loop in worker.run owns step intervals, phase samples and
// result assembly; the strategy owns how positions propagate
// (replica all-gather vs halo exchange), how forces are evaluated and
// combined, and how the reciprocal mesh is distributed (x-slabs vs 2-D
// pencils). Both implementations keep the engine's determinism contract:
// the work partition is a pure function of problem + rank count, and all
// reductions merge in fixed (rank-ascending) order.
type decomposition interface {
	// initialForces runs the unmeasured step-0 force evaluation of
	// velocity Verlet, leaving the rank ready for the first drift.
	initialForces(w *worker)
	// drift advances positions by one step and propagates them (the head
	// of the classic phase).
	drift(w *worker, step int)
	// forces evaluates classic + reciprocal forces. When st is non-nil it
	// closes the classic sample using tr and fills the PME sample.
	forces(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport
	// kick applies the second half-kick and completes rep.Kinetic (the
	// PME phase tail; the caller samples it).
	kick(w *worker, rep *md.EnergyReport)
}

// worker is the per-rank engine state.
type worker struct {
	r   *mpi.Rank
	c   comms
	cfg Config
	sh  *shared
	d   decomposition

	ff  *ff.ForceField
	nbk *ff.NonbondedKernel
	pme *ewald.PME

	pos, vel []vec.V
	frcTotal []vec.V // combined forces of the previous evaluation
	partial  []vec.V // scratch partial force array

	pairs      []space.Pair
	listOrigin []vec.V // nil until the first list build
	listGen    int     // neighbour-list generation, in lockstep on all ranks
	eval       int     // force evaluations started, in lockstep on all ranks

	// Tape mode of the replicated path: at most one of rec/replay is
	// non-nil. Recording appends every segment's counters; replaying
	// charges the recorded counters and skips the physics (and all physics
	// state below stays unallocated). A domain rank leaves both nil: its
	// counts come from the epoch of the snapshot it is served.
	rec       *Tape
	replay    *Tape
	replayPos int

	// stop requests a graceful end of the step loop after the current
	// step (the resilient driver's halt or preemption point). Only touched
	// from onStep code on the scheduler thread.
	stop bool

	// mStep is rank 0's cached current-step gauge (nil without a registry).
	mStep *obs.Gauge

	// Partitions.
	p          int
	atomOff    []int // atoms
	xOff, yOff []int // PME slab partitions
	pairOff    []int // nonbonded pair list (rebuilt with the list)
	classicParts

	sizeTables

	// PME working state, reused across steps. The rank transforms its own
	// x-planes and y-lines of the shared mesh with its own plans.
	localGrid []float64 // full grid, own-atom spreading
	plan2d    *fft.Plan2D
	plan1d    *fft.Plan

	integ *md.Integrator // the seed engine's, shared read-only by all ranks
}

func newWorker(r *mpi.Rank, cfg Config, sh *shared, seedEngine *md.Engine, tape *Tape) *worker {
	sys := cfg.System
	n := sys.N()
	p := r.Size()
	w := &worker{r: r, cfg: cfg, sh: sh, p: p}
	switch {
	case cfg.Middleware == MiddlewareCMPI:
		w.c = cmpi.New(r)
	case cfg.ModernCollectives:
		w.c = mpiModernComms{r: r}
	default:
		w.c = r
	}
	if cfg.Perf != nil && r.ID == 0 {
		// One observer per collective: rank 0's comms feed the
		// communication log.
		w.c = perfComms{inner: w.c, tl: cfg.Perf}
	}
	pmeCfg := cfg.MD.PME

	w.atomOff = kernels.Partition(n, p, nil)
	if reg := r.Metrics(); reg != nil && r.ID == 0 {
		w.mStep = reg.Gauge("repro_run_step", "current MD step of the live run")
		// Slab PME leaves ranks beyond the y-line partition idle through
		// the spectrum stage (and ranks beyond K1 would hold no slab at
		// all — those are rejected up front). The gauge quantifies the
		// ceiling the domain path exists to break; it reads 0 there.
		idle := 0
		if cfg.Decomp == DecompReplicated {
			xo := kernels.Partition(pmeCfg.K1, p, nil)
			yo := kernels.Partition(pmeCfg.K2, p, nil)
			for i := 0; i < p; i++ {
				if xo[i+1] == xo[i] || yo[i+1] == yo[i] {
					idle++
				}
			}
		}
		reg.Gauge("repro_pme_idle_ranks",
			"ranks with no PME slab or spectrum lines under the current decomposition").Set(float64(idle))
	}
	if cfg.Decomp == DecompDomain {
		w.d = newDomainDecomp(sh, tape)
		return w
	}
	switch {
	case tape.Complete():
		w.replay = tape
	case tape != nil:
		w.rec = tape
	}
	w.d = replicatedDecomp{}
	w.classicParts = newClassicParts(sys, p)
	w.xOff = kernels.Partition(pmeCfg.K1, p, nil)
	w.yOff = kernels.Partition(pmeCfg.K2, p, nil)

	// FFT plans are cheap and provide the exact op counts the segment
	// lower bounds need, so they exist in every mode.
	w.plan2d = fft.NewPlan2D(pmeCfg.K2, pmeCfg.K3)
	w.plan1d = fft.NewPlan(pmeCfg.K1)

	w.sizeTables = newSizeTables(w.atomOff, w.xOff, w.yOff, pmeCfg.K2, pmeCfg.K3)

	if w.replay != nil {
		// Replay charges recorded counters; no physics state needed.
		return w
	}

	w.ff = seedEngine.FF
	w.nbk = w.ff.NewNonbondedKernel() // per-rank scratch over the shared FF
	w.pos = append([]vec.V(nil), seedEngine.Pos...)
	w.vel = append([]vec.V(nil), seedEngine.Vel...)
	w.frcTotal = make([]vec.V, n)
	w.partial = make([]vec.V, n)
	w.listGen = -1 // no list yet; first build is generation 0
	if init := cfg.Init; init != nil && len(init.ListOrigin) == n {
		// Resume with the interrupted run's Verlet-list state: rebuild the
		// pair list at the checkpointed origin (not the current positions)
		// so the restarted trajectory stays bitwise identical. The build is
		// shared across ranks and charges no work — the interrupted run
		// already paid for it at the step where the list was built.
		w.listOrigin = append([]vec.V(nil), init.ListOrigin...)
		w.listGen = 0
		w.pairs, _ = w.sh.sharedList(0, seedEngine.FF, w.listOrigin)
		w.pairOff = kernels.Partition(len(w.pairs), p, nil)
	}
	w.integ = seedEngine.Integrator()
	w.pme = ewald.NewPME(sys.Box, pmeCfg.Beta, pmeCfg.K1, pmeCfg.K2, pmeCfg.K3, pmeCfg.Order)
	w.nbk.SetPool(sh.pool)
	w.pme.SetPool(sh.pool)

	w.localGrid = make([]float64, pmeCfg.K1*pmeCfg.K2*pmeCfg.K3)

	// Publish the buffers the other ranks read; they never move.
	me := w.me()
	aLo, aHi := w.myAtoms()
	sh.posBlocks[me] = w.pos[aLo:aHi]
	sh.partials[me] = w.partial
	sh.grids[me] = w.localGrid
	return w
}

// sizeTables are the replicated path's collective size tables, fixed by
// the partitions and computed once per rank. They are what the model
// ships; the host moves none of these bytes, because the ranks read each
// other's grids and the shared mesh in place.
type sizeTables struct {
	blocks     []int   // position all-gather
	blocksConv []int   // convolved-potential all-gather
	sizesGrid  [][]int // grid-assembly all-to-all
	sizesTF    [][]int // forward transpose
	sizesTB    [][]int // backward transpose
}

// newSizeTables builds the tables of p = len(atomOff)−1 ranks owning the
// atom blocks of atomOff, the mesh x-planes of xOff and the spectrum
// y-lines of yOff, on a mesh of k2·k3-point planes.
func newSizeTables(atomOff, xOff, yOff []int, k2, k3 int) sizeTables {
	p := len(atomOff) - 1
	planeLen := k2 * k3
	t := sizeTables{
		blocks:     make([]int, p),
		blocksConv: make([]int, p),
		sizesGrid:  make([][]int, p),
		sizesTF:    make([][]int, p),
		sizesTB:    make([][]int, p),
	}
	for i := 0; i < p; i++ {
		t.blocks[i] = bytesPerCoord * (atomOff[i+1] - atomOff[i])
		t.blocksConv[i] = bytesPerRealPoint * (xOff[i+1] - xOff[i]) * planeLen
		t.sizesGrid[i] = make([]int, p)
		t.sizesTF[i] = make([]int, p)
		t.sizesTB[i] = make([]int, p)
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			t.sizesGrid[i][j] = bytesPerRealPoint * (xOff[j+1] - xOff[j]) * planeLen
			t.sizesTF[i][j] = bytesPerPoint * (xOff[i+1] - xOff[i]) * (yOff[j+1] - yOff[j]) * k3
			t.sizesTB[i][j] = bytesPerPoint * (xOff[j+1] - xOff[j]) * (yOff[i+1] - yOff[i]) * k3
		}
	}
	return t
}

func (w *worker) me() int             { return w.r.ID }
func (w *worker) myAtoms() (int, int) { return w.atomOff[w.me()], w.atomOff[w.me()+1] }
func (w *worker) myXW() int           { return w.xOff[w.me()+1] - w.xOff[w.me()] }
func (w *worker) myYW() int           { return w.yOff[w.me()+1] - w.yOff[w.me()] }

// seg charges one compute segment. fn must be pure physics over rank-local
// (or collective-ordered) data, reporting its work through the counters.
// minW must be a guaranteed lower bound on those counters — it is what
// lets the host-parallel scheduler overlap this segment with other ranks'.
// On the replicated path, recording mode tapes the counters and replay mode
// skips fn and charges the recorded counters instead.
func (w *worker) seg(minW work.Counters, fn func(*work.Counters)) {
	switch {
	case w.replay != nil:
		wc := w.replay.segs[w.me()][w.replayPos]
		w.replayPos++
		w.r.ComputeWork(wc)
	case w.rec != nil:
		w.r.ComputeSeg(minW, func(c *work.Counters) {
			fn(c)
			w.rec.record(w.me(), *c)
		})
	default:
		w.r.ComputeSeg(minW, fn)
	}
}

// inline runs zero-cost physics bookkeeping (publishing slots, combines,
// replica refreshes) on the scheduler thread; replay mode skips it. Such
// code may read remote slots — the collective ordering guarantees their
// writers' segments already resolved.
func (w *worker) inline(fn func()) {
	if w.replay == nil {
		fn()
	}
}

// phaseTracker captures comp/comm/sync deltas for one phase.
type phaseTracker struct {
	r     *mpi.Rank
	t0    float64
	acct0 mpi.Accounting
}

func (w *worker) beginPhase() phaseTracker {
	return phaseTracker{r: w.r, t0: w.r.Now(), acct0: w.r.Acct()}
}

func (t phaseTracker) sample() PhaseSample {
	d := t.r.Acct().Sub(t.acct0)
	return PhaseSample{
		Comp: d.Comp, Comm: d.Comm, Sync: d.Sync,
		Wall:  t.r.Now() - t.t0,
		Bytes: d.BytesSent,
	}
}

// emitStep publishes a completed step's intervals: the classic and PME
// phase lanes (the background of the timeline; the labels exist only for
// a collector, so they are only built for one) and then the step as a
// whole, which is counted but never drawn — it would cover its own lanes.
func (w *worker) emitStep(step int, st *StepTiming, stepStart, stepEnd float64) {
	var classic, pme string
	if w.cfg.Tracer != nil {
		classic, pme = fmt.Sprintf("classic %d", step), fmt.Sprintf("pme %d", step)
	}
	w.r.TraceSpan(trace.KindPhase, classic, stepStart, stepStart+st.Classic.Wall)
	w.r.TraceSpan(trace.KindPhase, pme, stepEnd-st.PME.Wall, stepEnd)
	w.r.CountSpan(trace.KindPhase, stepStart, stepEnd)
}

// run executes the configured number of steps.
func (w *worker) run(res *Result) {
	timings := make([]StepTiming, 0, w.cfg.Steps)

	// Initial force evaluation (step 0 of velocity Verlet), not measured —
	// the paper times the MD steps after the testing environment settled.
	w.d.initialForces(w)

	for step := 0; step < w.cfg.Steps; step++ {
		var st StepTiming
		if w.mStep != nil {
			w.mStep.Set(float64(step))
		}

		// ---- Classic phase ---------------------------------------------
		tr := w.beginPhase()

		// Drift + position propagation, then forces: closes the classic
		// sample, fills the PME sample.
		w.d.drift(w, step)
		rep := w.d.forces(w, &st, tr)

		// ---- Second half-kick + step bookkeeping (PME phase tail) -------
		tp := w.beginPhase()
		w.d.kick(w, &rep)
		st.PME.Add(tp.sample())

		w.emitStep(step, &st, tr.t0, w.r.Now())

		timings = append(timings, st)
		if w.me() == 0 {
			if w.replay != nil {
				rep = w.replay.energies[step]
			}
			res.Energies = append(res.Energies, rep)
			if w.cfg.OnStep != nil {
				w.cfg.OnStep(w.cfg.stepBase+step, st, rep)
			}
		}
		if w.cfg.onStep != nil {
			w.cfg.onStep(w, step)
		}
		if w.stop {
			break
		}
	}

	res.Timings[w.me()] = timings
	if w.me() == 0 {
		if w.replay != nil {
			res.FinalPos = append([]vec.V(nil), w.replay.finalPos...)
		} else {
			res.FinalPos = append([]vec.V(nil), w.pos...)
		}
		res.Wall = w.r.Now()
	}
}

// replicatedDecomp is the paper's replicated-data decomposition: every
// rank holds a full replica, positions propagate with an all-gather, and
// computeForces runs the block-partitioned classic terms plus the
// slab-decomposed PME.
type replicatedDecomp struct{}

func (replicatedDecomp) initialForces(w *worker) {
	w.computeForces(nil, phaseTracker{})
}

func (replicatedDecomp) drift(w *worker, step int) {
	aLo, aHi := w.myAtoms()
	nOwn := int64(aHi - aLo)

	// Half-kick + drift for the owned atom block.
	w.seg(work.Counters{Integrate: nOwn}, func(wc *work.Counters) {
		w.integ.KickDrift(w.pos, w.vel, w.frcTotal, aLo, aHi)
		wc.Integrate += nOwn
	})

	// All-gather positions, refresh the replica.
	w.c.Allgatherv(w.blocks)
	w.inline(func() {
		for rk := 0; rk < w.p; rk++ {
			if rk == w.me() {
				continue
			}
			copy(w.pos[w.atomOff[rk]:w.atomOff[rk+1]], w.sh.posBlocks[rk])
		}
	})
}

func (replicatedDecomp) forces(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport {
	return w.computeForces(st, tr)
}

func (replicatedDecomp) kick(w *worker, rep *md.EnergyReport) {
	aLo, aHi := w.myAtoms()
	nOwn := int64(aHi - aLo)
	var kin float64
	w.seg(work.Counters{Integrate: nOwn}, func(wk *work.Counters) {
		w.integ.Kick(w.vel, w.frcTotal, aLo, aHi)
		kin = w.integ.Kinetic(w.vel, aLo, aHi)
		wk.Integrate += nOwn
	})
	w.inline(func() { w.sh.energy[w.me()].Kinetic = kin })
	w.c.Barrier()
	w.inline(func() {
		var kinTotal float64
		for rk := 0; rk < w.p; rk++ {
			kinTotal += w.sh.energy[rk].Kinetic
		}
		rep.Kinetic = kinTotal
	})
}
