package pmd

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/work"
)

const (
	bytesPerPoint     = 16 // complex spectrum values moved by the FFT transposes
	bytesPerRealPoint = 8  // real-valued charge / potential grids (CHARMM ships real grids)
	bytesPerCoord     = 24 // one vec.V
)

// shared is what every rank of a run reads: the tape that serves the
// states and the layouts fixed by the rank count.
type shared struct {
	tape *Tape       // serves every rank the trajectory's states
	dom  *domainView // the tape's domain view at the run's rank count (domain runs only)

	atomOff []int // the replicated atom blocks (integration)

	// The replicated pipeline's partitions: the work its fixed blocks of
	// the bonded terms, the 1-4 pairs and the exclusion rows hold, per
	// rank; the slab partitions, the collective size tables they fix and
	// the op counts of the plans that would transform a rank's planes and
	// lines (replicated runs only).
	classicWork, recipWork []work.Counters
	xOff, yOff             []int
	sizeTables
	ops2d, ops1d int64
}

// newShared builds what the run's ranks share: the run's tape, and one
// copy of the replicated partitions for a replicated run or the tape's
// domain view for a domain one.
func newShared(p int, cfg Config, t *Tape) *shared {
	pmeCfg := cfg.MD.PME
	sh := &shared{tape: t, atomOff: kernels.Partition(cfg.System.N(), p, nil)}
	if cfg.Decomp == DecompDomain {
		sh.dom = t.domain(p)
		return sh
	}
	sh.classicWork, sh.recipWork = partitionWork(cfg.System, sh.atomOff)
	sh.xOff = kernels.Partition(pmeCfg.K1, p, nil)
	sh.yOff = kernels.Partition(pmeCfg.K2, p, nil)
	sh.sizeTables = newSizeTables(sh.atomOff, sh.xOff, sh.yOff, pmeCfg.K2, pmeCfg.K3)
	sh.ops2d = fft.NewPlan2D(pmeCfg.K2, pmeCfg.K3).Ops()
	sh.ops1d = fft.Ops(pmeCfg.K1)
	return sh
}

// decomposition is the strategy a rank drives its step pipeline through.
// The shared run loop in worker.run owns step intervals, phase samples and
// result assembly; the strategy owns what the rank charges: how positions
// propagate (replica all-gather vs halo exchange), how the force
// evaluation is distributed and combined, and how the reciprocal mesh is
// distributed (x-slabs vs 2-D pencils). Both serve every number from the
// tape's states and charge work that is a pure function of problem + rank
// count, so both keep the engine's determinism contract.
type decomposition interface {
	// initialForces charges the unmeasured step-0 force evaluation of
	// velocity Verlet, leaving the rank ready for the first drift.
	initialForces(w *worker)
	// drift advances positions by one step and propagates them (the head
	// of the classic phase).
	drift(w *worker, step int)
	// forces charges classic + reciprocal forces. When st is non-nil it
	// closes the classic sample using tr and fills the PME sample.
	forces(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport
	// kick charges the second half-kick (the PME phase tail; the caller
	// samples it).
	kick(w *worker)
}

// worker is the per-rank engine state.
type worker struct {
	r   *mpi.Rank
	c   comms
	cfg Config
	sh  *shared
	d   decomposition
	p   int

	// The state the rank serves: the drift segment looks up the step's,
	// and between steps it is the last completed step's, which the
	// checkpoint recorder and FinalPos read.
	cur *snapshot

	// stop requests a graceful end of the step loop after the current
	// step (the resilient driver's halt or preemption point). Only the
	// onStep hook sets it, on the rank's own process.
	stop bool

	// mStep is rank 0's 1-based global step gauge (nil without a registry).
	mStep *obs.Gauge
}

func newWorker(r *mpi.Rank, cfg Config, sh *shared) *worker {
	w := &worker{r: r, cfg: cfg, sh: sh, p: r.Size()}
	switch cfg.Middleware {
	case MiddlewareCMPI:
		w.c = r.CMPI()
	case MiddlewareModern:
		w.c = mpiModernComms{r: r}
	default:
		w.c = mpiComms{r: r}
	}
	if reg := r.Metrics(); reg != nil && r.ID == 0 {
		w.mStep = reg.Gauge("repro_run_step", "current MD step of the live run")
		// Slab PME leaves ranks beyond the y-line partition idle through
		// the spectrum stage (and ranks beyond K1 would hold no slab at
		// all — those are rejected up front). The gauge quantifies the
		// ceiling the domain path exists to break; it reads 0 there.
		idle := 0
		if cfg.Decomp == DecompReplicated {
			for i := 0; i < w.p; i++ {
				if sh.xOff[i+1] == sh.xOff[i] || sh.yOff[i+1] == sh.yOff[i] {
					idle++
				}
			}
		}
		reg.Gauge("repro_pme_idle_ranks",
			"ranks with no PME slab or spectrum lines under the current decomposition").Set(float64(idle))
	}
	if cfg.Decomp == DecompDomain {
		w.d = &domainDecomp{}
	} else {
		w.d = replicatedDecomp{}
	}
	return w
}

func (w *worker) me() int             { return w.r.ID }
func (w *worker) myAtoms() (int, int) { return w.sh.atomOff[w.me()], w.sh.atomOff[w.me()+1] }

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
// an observer, so they are only built for one) and then the step as a
// whole, which is counted but never drawn — it would cover its own lanes.
func (w *worker) emitStep(step int, st *StepTiming, stepStart, stepEnd float64) {
	var classic, pme string
	if w.cfg.Observer != nil {
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
			w.mStep.Set(float64(w.cfg.stepBase + step + 1))
		}

		// ---- Classic phase ---------------------------------------------
		tr := w.beginPhase()

		// Drift + position propagation, then forces: closes the classic
		// sample, fills the PME sample.
		w.d.drift(w, step)
		rep := w.d.forces(w, &st, tr)

		// ---- Second half-kick + step bookkeeping (PME phase tail) -------
		tp := w.beginPhase()
		w.d.kick(w)
		st.PME.Add(tp.sample())

		w.emitStep(step, &st, tr.t0, w.r.Now())

		timings = append(timings, st)
		if w.me() == 0 {
			res.Energies = append(res.Energies, rep)
		}
		if w.cfg.onStep != nil {
			w.cfg.onStep(w, step, st, rep)
		}
		if w.stop {
			break
		}
	}

	res.Timings[w.me()] = timings
	if w.me() == 0 {
		res.FinalPos = w.cur.pos
		res.Wall = w.r.Now()
	}
}
