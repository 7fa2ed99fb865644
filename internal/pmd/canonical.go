package pmd

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
	"repro/internal/work"
)

// canonical is the one physics provider of the runs at rank count p.
//
// Every run at rank count p computes one trajectory: the replicated-data
// arithmetic at p, every partition cut by p and every partial result
// merged rank-ascending, as CHARMM's ranks combine them through their
// collectives. canonical evaluates each step of it once and serves it to
// every rank as an immutable snapshot. The ranks' segments and collectives
// then charge the virtual time of their own pipeline from the snapshot's
// work counters and their layouts' exact counts, without touching the
// numbers; a snapshot carries its list generation's pair list for the
// layouts that derive their counts from it.
//
// While an evaluation runs every rank waits on it, so it spends the
// HostWorkers of the run that built c: its rank loops run W ranks at a time on W lanes of reused
// scratch, and each wave merges rank-ascending before the next starts —
// the same bits at every W.
//
// Concurrency: the first caller to need step s — a rank, or the
// evalAhead goroutine of a run over the tape, of whichever run sharing
// the evaluator (a Tape's) — evaluates it inside the step's once; every
// other caller waits on that once. A caller asks for step s only once step
// s-1 is evaluated, so at most one evaluation is ever in flight (the lanes
// are safely reused), and a finished snapshot is immutable while read. A
// tape's evaluator keeps every snapshot and holds nothing of the run that
// built it; a run's own keeps a two-step window and is never run ahead.
type canonical struct {
	p   int
	sys *topol.System
	pme md.PMEConfig

	ffield  *ff.ForceField
	charges []float64
	integ   *md.Integrator // the seed engine's

	seedPos, seedVel []vec.V
	seedOrigin       []vec.V // a checkpoint start's list origin, else nil

	// Replicated partitions at rank count p.
	atomOff, yOff []int
	classicParts

	ranks *kernels.Pool // HostWorkers wide: runs the lanes of a wave
	pool  *kernels.Pool // shared by the lanes' kernels
	xOff  []int         // the mesh x-planes each lane transforms

	// The evaluation scratch, built by the first evaluation that finds
	// none; a tape releases it when no run over it is in flight.
	lanes    []lane
	fullGrid []complex128 // assembled grid / spectrum / potential

	mu     sync.Mutex
	states map[int]*canonState
	kept   *atomic.Int64 // a tape's evaluator retains every snapshot and counts its bytes here; nil for a run's own
}

// lane is one host worker's scratch for the rank loops of an evaluation.
type lane struct {
	nbk     *ff.NonbondedKernel
	pme     *ewald.PME
	plan1d  *fft.Plan
	plan2d  *fft.Plan2D
	partial []vec.V   // the lane's rank's partial forces
	grid    []float64 // the lane's rank's spread contribution
	e       ff.Energies
	scalar  float64 // the lane's rank's recip or exclusion energy
}

// canonState is one step's immutable physics snapshot. Step -1 is the
// initial force evaluation of velocity Verlet. All slices are freshly
// allocated per step (or inherited unchanged from the previous step) so
// a rank still reading step s races with nothing while another rank's
// drift segment evaluates step s+1, and a tape's snapshot serves any
// number of runs at once.
type canonState struct {
	step int
	once sync.Once
	prev *canonState // cleared after evaluation

	pos, vel, frcTotal []vec.V
	rep                md.EnergyReport

	// Per rank, what the replicated arithmetic counts: the classic terms
	// over the rank's partitions, and the interpolation plus exclusion
	// correction over its atom block.
	classicWork, recipWork []work.Counters

	// The neighbour list: its generation, the positions it was built at
	// and its pairs, all inherited unchanged by the generation's later
	// steps.
	listGen    int
	listOrigin []vec.V
	pairs      []space.Pair
	rebuilt    bool
	distEvals  int64 // full list-search cost when rebuilt
}

func newCanonical(p int, cfg Config, seedEngine *md.Engine, kept *atomic.Int64) *canonical {
	sys := cfg.System
	n := sys.N()
	pmeCfg := cfg.MD.PME
	c := &canonical{
		p:       p,
		sys:     sys,
		pme:     pmeCfg,
		ffield:  seedEngine.FF,
		integ:   seedEngine.Integrator(),
		seedPos: append([]vec.V(nil), seedEngine.Pos...),
		seedVel: append([]vec.V(nil), seedEngine.Vel...),
		states:  map[int]*canonState{},
		kept:    kept,
	}
	if init := cfg.Init; init != nil && len(init.ListOrigin) == n {
		c.seedOrigin = append([]vec.V(nil), init.ListOrigin...)
	}
	c.charges = c.ffield.Charges()
	c.atomOff = kernels.Partition(n, p, nil)
	c.classicParts = newClassicParts(sys, p)
	c.yOff = kernels.Partition(pmeCfg.K2, p, nil)
	c.pool = kernels.NewPool(cfg.MD.KernelWorkers)
	c.ranks = kernels.NewPool(cfg.HostWorkers)
	c.xOff = kernels.Partition(pmeCfg.K1, min(c.ranks.Workers(), p), nil)
	return c
}

// scratch builds the lanes and the assembled grid if there are none.
func (c *canonical) scratch() {
	if c.lanes != nil {
		return
	}
	n, pmeCfg := c.sys.N(), c.pme
	g := pmeCfg.K1 * pmeCfg.K2 * pmeCfg.K3
	c.fullGrid = make([]complex128, g)
	c.lanes = make([]lane, len(c.xOff)-1)
	for i := range c.lanes {
		l := &c.lanes[i]
		l.nbk = c.ffield.NewNonbondedKernel()
		l.nbk.SetPool(c.pool)
		l.pme = ewald.NewPME(c.sys.Box, pmeCfg.Beta, pmeCfg.K1, pmeCfg.K2, pmeCfg.K3, pmeCfg.Order)
		l.pme.SetPool(c.pool)
		l.plan1d = fft.NewPlan(pmeCfg.K1)
		l.plan2d = fft.NewPlan2D(pmeCfg.K2, pmeCfg.K3)
		l.partial = make([]vec.V, n)
		l.grid = make([]float64, g)
	}
}

// state returns step's snapshot, evaluating it exactly once across all
// ranks of every run sharing c. step -1 is the initial evaluation; step
// s > -1 requires step s-1 to have been evaluated (guaranteed by the
// per-step barrier and by runs advancing a step at a time).
func (c *canonical) state(step int) *canonState {
	c.mu.Lock()
	st, ok := c.states[step]
	if !ok {
		st = &canonState{step: step}
		if step > -1 {
			st.prev = c.states[step-1]
		}
		c.states[step] = st
		if c.kept == nil {
			delete(c.states, step-2) // ranks never lag more than one step
		}
	}
	c.mu.Unlock()
	st.once.Do(func() {
		if st.step == -1 {
			c.evalInit(st)
		} else {
			c.evalStep(st)
		}
		st.prev = nil
		if c.kept != nil {
			c.kept.Add(st.bytes())
		}
	})
	return st
}

// evalAhead evaluates states -1 … steps-1 in order on a goroutine of its
// own, so step s+1's physics runs on another core while the ranks
// simulate step s; a rank that reaches a step first evaluates it itself,
// and the goroutine waits on that step's once. Only a tape's evaluator,
// which keeps every state, may run ahead. The returned stop ends the
// goroutine once its evaluation in flight, if any, is done, and waits for
// it: after stop, every state of c is fully evaluated.
func (c *canonical) evalAhead(steps int) (stop func()) {
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := -1; s < steps && !quit.Load(); s++ {
			c.state(s)
		}
	}()
	return func() {
		quit.Store(true)
		<-done
	}
}

// bytes is what st holds beyond the step before it: its per-step arrays
// and, when it starts a list generation, the list and the list origin.
func (st *canonState) bytes() int64 {
	const v, wc, pair = int64(unsafe.Sizeof(vec.V{})), int64(unsafe.Sizeof(work.Counters{})), int64(unsafe.Sizeof(space.Pair{}))
	b := int64(unsafe.Sizeof(*st)) + v*int64(len(st.pos)+len(st.vel)+len(st.frcTotal)) +
		wc*int64(len(st.classicWork)+len(st.recipWork))
	if st.rebuilt || st.step == -1 {
		b += v*int64(len(st.listOrigin)) + pair*int64(len(st.pairs))
	}
	return b
}

// evalInit seeds the state from the sequential engine (optionally
// restored from a checkpoint, rebuilding the pair list at the checkpointed
// origin so the restarted trajectory stays bitwise identical; the
// interrupted run already paid for that build), then evaluates the forces.
func (c *canonical) evalInit(st *canonState) {
	st.pos = append([]vec.V(nil), c.seedPos...)
	st.vel = append([]vec.V(nil), c.seedVel...)
	st.listGen = -1
	if c.seedOrigin != nil {
		st.listOrigin = c.seedOrigin
		st.listGen = 0
		st.pairs = c.ffield.BuildPairs(st.listOrigin, nil)
	}
	c.forceEval(st)
}

// evalStep advances prev by one velocity-Verlet step: half-kick + drift,
// force evaluation (with neighbour-list management), second half-kick and
// the kinetic energy, whose per-rank block sums merge rank-ascending.
func (c *canonical) evalStep(st *canonState) {
	prev := st.prev
	n := c.sys.N()
	st.pos = append([]vec.V(nil), prev.pos...)
	st.vel = append([]vec.V(nil), prev.vel...)
	c.integ.KickDrift(st.pos, st.vel, prev.frcTotal, 0, n)
	st.listGen = prev.listGen
	st.listOrigin = prev.listOrigin
	st.pairs = prev.pairs

	c.forceEval(st)

	c.integ.Kick(st.vel, st.frcTotal, 0, n)
	var kinTotal float64
	for rk := 0; rk < c.p; rk++ {
		kinTotal += c.integ.Kinetic(st.vel, c.atomOff[rk], c.atomOff[rk+1])
	}
	st.rep.Kinetic = kinTotal
}

// waves runs eval(rk, l) for every rank rk, one wave of len(c.lanes) ranks
// at a time, each rank on its own lane, and after each wave merge(rk, l)
// for the wave's ranks in ascending order.
func (c *canonical) waves(eval, merge func(rk int, l *lane)) {
	w := len(c.lanes)
	for r0 := 0; r0 < c.p; r0 += w {
		n := min(w, c.p-r0)
		c.ranks.Run(n, func(i int) { eval(r0+i, &c.lanes[i]) })
		for i := 0; i < n; i++ {
			merge(r0+i, &c.lanes[i])
		}
	}
}

// planes runs fn over every x-plane of the mesh, the lanes splitting them.
func (c *canonical) planes(fn func(p *fft.Plan2D, plane []complex128)) {
	planeLen := c.pme.K2 * c.pme.K3
	c.ranks.Run(len(c.lanes), func(i int) {
		for x := c.xOff[i]; x < c.xOff[i+1]; x++ {
			fn(c.lanes[i].plan2d, c.fullGrid[x*planeLen:(x+1)*planeLen])
		}
	})
}

// forceEval evaluates the forces and energies of st.pos in the replicated
// order: the per-rank partitions, each into a zeroed lane scratch, merged
// rank-ascending. The scratch reuse is bitwise safe: every accumulator
// starts at +0.0 and x + (−x) rounds to +0.0, so no merge input ever
// differs from a per-rank array of its own. For the same reason neither
// charge grid can hold −0.0 (a −0.0 product added to a +0.0 accumulator
// gives +0.0), so adding a scratch cell that is +0.0 is a bitwise no-op
// and the grid merge may skip every cell outside the rank's B-spline
// footprint, and every cell inside it that summed to zero.
func (c *canonical) forceEval(st *canonState) {
	sys := c.sys
	n := sys.N()
	pmeCfg := c.pme
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	planeLen := k2 * k3
	c.scratch()

	// Neighbour-list management: a rebuild starts a new list generation.
	if !c.integ.ListValid(st.pos, st.listOrigin) {
		st.listGen++
		var wl work.Counters
		st.pairs = c.ffield.BuildPairs(st.pos, &wl)
		st.distEvals = wl.ListDistEvals
		st.listOrigin = append([]vec.V(nil), st.pos...)
		st.rebuilt = true
	}

	st.frcTotal = make([]vec.V, n)
	st.classicWork = make([]work.Counters, c.p)
	st.recipWork = make([]work.Counters, c.p)

	// Classic terms, then the PME charge grid. Grid point i sums the rank
	// contributions rank-ascending — the per-point order of the replicated
	// slab assembly (including the zero adds of non-contributing ranks). A
	// lane grid is all zero when its rank spreads: it starts so, and each
	// merge clears every cell the rank's spread can have touched.
	var eAll ff.Energies
	pairOff := kernels.Partition(len(st.pairs), c.p, nil)
	clear(c.fullGrid)
	order := pmeCfg.Order
	c.waves(func(rk int, l *lane) {
		l.e = c.classic(rk, c.ffield, l.nbk, st.pos, st.pairs[pairOff[rk]:pairOff[rk+1]], l.partial, &st.classicWork[rk])
		l.pme.Spread(st.pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], l.grid)
	}, func(rk int, l *lane) {
		vec.AddTo(st.frcTotal, l.partial)
		eAll.Add(l.e)
		for i := c.atomOff[rk]; i < c.atomOff[rk+1]; i++ {
			if c.charges[i] == 0 {
				continue // Spread skips it too
			}
			i1, i2, i3 := l.pme.Footprint(st.pos[i])
			for _, a := range i1[:order] {
				for _, b := range i2[:order] {
					base := (a*k2 + b) * k3
					for _, z := range i3[:order] {
						if s := l.grid[base+z]; s != 0 {
							c.fullGrid[base+z] += complex(s, 0)
							l.grid[base+z] = 0
						}
					}
				}
			}
		}
	})
	st.rep = md.EnergyReport{FF: eAll}
	c.planes((*fft.Plan2D).Forward)
	// Spectrum lines in the replicated y-block order; the per-rank
	// subtotals merge rank-ascending.
	c.waves(func(rk int, l *lane) {
		l.scalar = 0
		for y := c.yOff[rk]; y < c.yOff[rk+1]; y++ {
			l.scalar = spectrumLines(l.plan1d, l.pme, c.fullGrid, y*k3, planeLen, k1, k3, y, l.scalar)
		}
	}, func(rk int, l *lane) { st.rep.Recip += l.scalar })
	c.planes((*fft.Plan2D).Inverse)
	// Interpolation + exclusion correction per rank block: forces merge
	// rank-ascending on top of the classic sum, the ExclCorr scalars too.
	c.waves(func(rk int, l *lane) {
		l.scalar = recipForces(l.pme, sys, c.fullGrid, st.pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], l.partial, &st.recipWork[rk])
	}, func(rk int, l *lane) {
		vec.AddTo(st.frcTotal, l.partial)
		st.rep.ExclCorr += l.scalar
	})
	st.rep.Self = ewald.SelfEnergy(c.charges, pmeCfg.Beta)
	st.rep.Background = ewald.BackgroundEnergy(c.charges, pmeCfg.Beta, sys.Box.Volume())
}

// classicParts is the replicated block partition of the bonded terms and
// the 1-4 pairs over the ranks.
type classicParts struct {
	bondOff, angOff         []int
	dihOff, imprOff, p14Off []int
}

func newClassicParts(sys *topol.System, p int) classicParts {
	return classicParts{
		bondOff: kernels.Partition(len(sys.Bonds), p, nil),
		angOff:  kernels.Partition(len(sys.Angles), p, nil),
		dihOff:  kernels.Partition(len(sys.Dihedrals), p, nil),
		imprOff: kernels.Partition(len(sys.Impropers), p, nil),
		p14Off:  kernels.Partition(len(sys.Pairs14), p, nil),
	}
}

// classic evaluates rank rk's classic forces into out (zeroed first) and
// returns its energies; pairs is the rank's block of the pair list.
func (cp *classicParts) classic(rk int, f *ff.ForceField, nbk *ff.NonbondedKernel,
	pos []vec.V, pairs []space.Pair, out []vec.V, wc *work.Counters) ff.Energies {
	var e ff.Energies
	vec.Fill(out, vec.Zero)
	e.Bond = f.BondsRange(pos, out, wc, cp.bondOff[rk], cp.bondOff[rk+1])
	e.Angle = f.AnglesRange(pos, out, wc, cp.angOff[rk], cp.angOff[rk+1])
	e.Dihedral = f.DihedralsRange(pos, out, wc, cp.dihOff[rk], cp.dihOff[rk+1])
	e.Improper = f.ImpropersRange(pos, out, wc, cp.imprOff[rk], cp.imprOff[rk+1])
	e.Add(nbk.Compute(pos, pairs, out, wc))
	e.Add(f.Pairs14Range(pos, out, wc, cp.p14Off[rk], cp.p14Off[rk+1]))
	return e
}

// spectrumLines runs the reciprocal sum over the k3 x-lines of mesh row
// m2, which start at buf[base] and step by stride along x: forward 1-D
// FFTs, the influence multiply, inverse FFTs. The lines' energy is added
// to eRecip term by term, z-outer and m1-inner, and the sum returned.
func spectrumLines(plan *fft.Plan, pme *ewald.PME, buf []complex128, base, stride, k1, k3, m2 int, eRecip float64) float64 {
	plan.ForwardLines(buf, base, stride, k3)
	for z := 0; z < k3; z++ {
		for m1 := 0; m1 < k1; m1++ {
			eC, cC := pme.Psi(m1, m2, z)
			i := base + m1*stride + z
			v := buf[i]
			eRecip += eC * (real(v)*real(v) + imag(v)*imag(v))
			buf[i] = v * complex(cC, 0)
		}
	}
	plan.InverseLines(buf, base, stride, k3)
	return eRecip
}

// recipForces interpolates the PME forces of atoms [lo, hi) from the
// convolved potential mesh into out (zeroed first), adds the excluded-pair
// correction of the same exclusion rows and returns its energy.
func recipForces(pme *ewald.PME, sys *topol.System, conv []complex128, pos []vec.V,
	charges []float64, lo, hi int, out []vec.V, wc *work.Counters) float64 {
	vec.Fill(out, vec.Zero)
	pme.Interpolate(conv, pos, charges, lo, hi, out)
	return ewald.ExclusionCorrectionRange(sys.Box, pos, charges, sys.Excl, pme.Beta, lo, hi, out, wc)
}
