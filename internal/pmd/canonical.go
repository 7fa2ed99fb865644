package pmd

import (
	"sync"

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

// canonical is the domain decomposition's shared physics evaluator.
//
// The determinism contract requires the domain path to produce energies
// and forces byte-identical to the replicated path at the same rank count
// (the halo-exchange property test pins this). Replaying replicated-data
// arithmetic atom-by-atom inside every domain rank would both waste host
// work (p full evaluations per step) and make bit-equality hostage to the
// order halo fragments arrive in. Instead, each step's physics is
// evaluated exactly once per run, in the canonical replicated order —
// partitions by rank count p, partial results merged rank-ascending —
// and every domain rank serves its values from the resulting immutable
// snapshot. The domain ranks' own segments and collectives then charge
// the virtual time of the spatial pipeline (halo exchange, owner-computes
// terms, pencil FFTs) without touching the numbers.
//
// Concurrency: the first rank to need step s runs the evaluation inside
// its drift segment's once; the per-step barrier in kick keeps all ranks
// within one step of each other, so an evaluation never runs concurrently
// with another (the scratch buffers and the current pair list below are
// safely reused) and finished snapshots are immutable when read.
//
// The snapshots depend on the workload and p alone, so a recording run
// keeps every one of them and they become its Tape: a replay serves them
// to its ranks without building an evaluator at all. Any other run keeps a
// two-step window.
type canonical struct {
	cfg Config
	p   int
	sys *topol.System

	ffield *ff.ForceField
	nbk    *ff.NonbondedKernel
	pme    *ewald.PME
	sh     *shared
	geo    *domainGeometry

	charges []float64
	integ   *md.Integrator // the seed engine's

	seedPos, seedVel []vec.V

	// Replicated-equivalent partitions at rank count p.
	atomOff, yOff []int
	classicParts

	// The current neighbour list and its rank partition. Evaluations run
	// one at a time in step order, so the next one inherits the last built.
	pairs   []space.Pair
	pairOff []int

	plan2d *fft.Plan2D
	plan1d *fft.Plan

	// Scratch reused across evaluations (never concurrent, see above).
	scratchGrid []float64    // one rank's spread contribution
	fullGrid    []complex128 // assembled grid / spectrum / potential
	partial     []vec.V

	mu     sync.Mutex
	states map[int]*canonState
	keep   bool // retain every snapshot: this run records a tape
}

// canonState is one step's immutable physics snapshot. Step -1 is the
// initial force evaluation of velocity Verlet. All slices are freshly
// allocated per step (or inherited unchanged from the previous step) so
// a rank still reading step s races with nothing while another rank's
// drift segment evaluates step s+1, and a taped snapshot serves any number
// of replays at once.
type canonState struct {
	step int
	once sync.Once
	prev *canonState // cleared after evaluation

	pos, vel, frcTotal []vec.V
	rep                md.EnergyReport

	listGen    int
	listOrigin []vec.V
	rebuilt    bool
	distEvals  int64 // full list-search cost when rebuilt

	// Spatial view of this step: ownership epoch (fixed between list
	// rebuilds) and, on a rebuild, the atom-migration size matrix from
	// the previous epoch's owners to the new ones.
	epoch     *epochData
	migration [][]int
}

func newCanonical(p int, cfg Config, sh *shared, seedEngine *md.Engine, keep bool) *canonical {
	sys := cfg.System
	n := sys.N()
	pmeCfg := cfg.MD.PME
	c := &canonical{
		cfg:     cfg,
		p:       p,
		sys:     sys,
		ffield:  seedEngine.FF,
		sh:      sh,
		integ:   seedEngine.Integrator(),
		seedPos: append([]vec.V(nil), seedEngine.Pos...),
		seedVel: append([]vec.V(nil), seedEngine.Vel...),
		states:  map[int]*canonState{},
		keep:    keep,
	}
	c.nbk = c.ffield.NewNonbondedKernel()
	c.charges = c.ffield.Charges()
	c.atomOff = kernels.Partition(n, p, nil)
	c.classicParts = newClassicParts(sys, p)
	c.yOff = kernels.Partition(pmeCfg.K2, p, nil)
	c.pme = ewald.NewPME(sys.Box, pmeCfg.Beta, pmeCfg.K1, pmeCfg.K2, pmeCfg.K3, pmeCfg.Order)
	c.plan2d = fft.NewPlan2D(pmeCfg.K2, pmeCfg.K3)
	c.plan1d = fft.NewPlan(pmeCfg.K1)
	c.nbk.SetPool(sh.pool)
	c.pme.SetPool(sh.pool)
	g := pmeCfg.K1 * pmeCfg.K2 * pmeCfg.K3
	c.scratchGrid = make([]float64, g)
	c.fullGrid = make([]complex128, g)
	c.partial = make([]vec.V, n)
	c.geo = newDomainGeometry(p, cfg)
	return c
}

// state returns step's snapshot, evaluating it exactly once across all
// ranks. step -1 is the initial evaluation; step s > -1 requires step
// s-1 to have been evaluated (guaranteed by the per-step barrier).
func (c *canonical) state(step int) *canonState {
	c.mu.Lock()
	st, ok := c.states[step]
	if !ok {
		st = &canonState{step: step}
		if step > -1 {
			st.prev = c.states[step-1]
		}
		c.states[step] = st
		if !c.keep {
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
	})
	return st
}

// snapshots returns a recording run's snapshots in step order, step s at
// index s+1.
func (c *canonical) snapshots(steps int) []*canonState {
	out := make([]*canonState, steps+1)
	for i := range out {
		out[i] = c.states[i-1]
	}
	return out
}

// evalInit mirrors the replicated worker's construction + initial
// computeForces: seed state from the sequential engine (optionally
// restored from a checkpoint, rebuilding the pair list at the
// checkpointed origin so the restarted trajectory stays bitwise
// identical), then one force evaluation.
func (c *canonical) evalInit(st *canonState) {
	st.pos = append([]vec.V(nil), c.seedPos...)
	st.vel = append([]vec.V(nil), c.seedVel...)
	st.listGen = -1
	if init := c.cfg.Init; init != nil && len(init.ListOrigin) == c.sys.N() {
		st.listOrigin = append([]vec.V(nil), init.ListOrigin...)
		st.listGen = 0
		c.pairs, _ = c.sh.sharedList(0, c.ffield, st.listOrigin)
		c.pairOff = kernels.Partition(len(c.pairs), c.p, nil)
	}
	c.forceEval(st)
}

// evalStep advances prev by one velocity-Verlet step: half-kick + drift,
// force evaluation (with neighbour-list management), second half-kick and
// the kinetic energy — all in the replicated path's arithmetic order.
func (c *canonical) evalStep(st *canonState) {
	prev := st.prev
	n := c.sys.N()
	st.pos = append([]vec.V(nil), prev.pos...)
	st.vel = append([]vec.V(nil), prev.vel...)
	c.integ.KickDrift(st.pos, st.vel, prev.frcTotal, 0, n)
	st.listGen = prev.listGen
	st.listOrigin = prev.listOrigin
	st.epoch = prev.epoch

	c.forceEval(st)

	c.integ.Kick(st.vel, st.frcTotal, 0, n)
	// Kinetic energy: per-rank block sums merged rank-ascending, exactly
	// like the replicated kick + barrier combine.
	var kinTotal float64
	for rk := 0; rk < c.p; rk++ {
		kinTotal += c.integ.Kinetic(st.vel, c.atomOff[rk], c.atomOff[rk+1])
	}
	st.rep.Kinetic = kinTotal
}

// forceEval reproduces computeForces' arithmetic serially: the same
// per-rank partitions evaluated rank 0..p-1 into a zeroed scratch, the
// same rank-ascending merges. The scratch reuse is bitwise safe: every
// accumulator starts at +0.0 and x + (−x) rounds to +0.0, so no merge
// input ever differs from the replicated path's per-rank arrays. For the
// same reason neither charge grid can hold −0.0 (a −0.0 product added to a
// +0.0 accumulator gives +0.0), so adding a scratch cell that is +0.0 is a
// bitwise no-op and the grid merge may skip every cell outside the rank's
// B-spline footprint, and every cell inside it that summed to zero.
func (c *canonical) forceEval(st *canonState) {
	sys := c.sys
	n := sys.N()
	pmeCfg := c.cfg.MD.PME
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	planeLen := k2 * k3

	// Neighbour-list management; a rebuild starts a new ownership epoch.
	if !c.integ.ListValid(st.pos, st.listOrigin) {
		st.listGen++
		c.pairs, st.distEvals = c.sh.sharedList(st.listGen, c.ffield, st.pos)
		st.listOrigin = append([]vec.V(nil), st.pos...)
		c.pairOff = kernels.Partition(len(c.pairs), c.p, nil)
		st.rebuilt = true
		oldEpoch := st.epoch
		st.epoch = c.geo.buildEpoch(c, st)
		if oldEpoch != nil {
			st.migration = c.geo.migrationSizes(oldEpoch, st.epoch)
		}
	}
	if st.epoch == nil {
		// Checkpoint restore with a still-valid list: the epoch follows
		// the checkpointed list origin, as it did in the interrupted run.
		st.epoch = c.geo.buildEpoch(c, st)
	}

	// Classic terms: per-rank partials merged rank-ascending.
	st.frcTotal = make([]vec.V, n)
	var eAll ff.Energies
	var wc work.Counters // the canonical evaluation charges no work; the domain ranks do
	for rk := 0; rk < c.p; rk++ {
		e := c.classic(rk, c.ffield, c.nbk, st.pos, c.pairs[c.pairOff[rk]:c.pairOff[rk+1]], c.partial, &wc)
		vec.AddTo(st.frcTotal, c.partial)
		eAll.Add(e)
	}
	st.rep = md.EnergyReport{FF: eAll}

	// PME reciprocal sum. Grid assembly point p sums rank contributions
	// rk-ascending — the same per-point order as the replicated slab
	// assembly (including the zero adds of non-contributing ranks).
	for i := range c.fullGrid {
		c.fullGrid[i] = 0
	}
	// scratchGrid is all zero here: it starts so, and each rank's merge
	// clears every cell the rank's spread can have touched.
	order := pmeCfg.Order
	for rk := 0; rk < c.p; rk++ {
		lo, hi := c.atomOff[rk], c.atomOff[rk+1]
		c.pme.Spread(st.pos, c.charges, lo, hi, c.scratchGrid)
		for i := lo; i < hi; i++ {
			if c.charges[i] == 0 {
				continue // Spread skips it too
			}
			i1, i2, i3 := c.pme.Footprint(st.pos[i])
			for _, a := range i1[:order] {
				for _, b := range i2[:order] {
					base := (a*k2 + b) * k3
					for _, z := range i3[:order] {
						if s := c.scratchGrid[base+z]; s != 0 {
							c.fullGrid[base+z] += complex(s, 0)
							c.scratchGrid[base+z] = 0
						}
					}
				}
			}
		}
	}
	for x := 0; x < k1; x++ {
		c.plan2d.Forward(c.fullGrid[x*planeLen : (x+1)*planeLen])
	}
	// Spectrum lines in the replicated y-block order; the per-rank eRecip
	// subtotals merge rank-ascending.
	for rk := 0; rk < c.p; rk++ {
		var eR float64
		for y := c.yOff[rk]; y < c.yOff[rk+1]; y++ {
			eR = spectrumLines(c.plan1d, c.pme, c.fullGrid, y*k3, planeLen, k1, k3, y, eR)
		}
		st.rep.Recip += eR
	}
	for x := 0; x < k1; x++ {
		c.plan2d.Inverse(c.fullGrid[x*planeLen : (x+1)*planeLen])
	}
	// Interpolation + exclusion correction per rank block, merged in the
	// replicated order: forces rank-ascending on top of the classic sum,
	// then the ExclCorr scalar rank-ascending.
	for rk := 0; rk < c.p; rk++ {
		st.rep.ExclCorr += recipForces(c.pme, sys, c.fullGrid, st.pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], c.partial, &wc)
		vec.AddTo(st.frcTotal, c.partial)
	}
	st.rep.Self = ewald.SelfEnergy(c.charges, c.pme.Beta)
	st.rep.Background = ewald.BackgroundEnergy(c.charges, c.pme.Beta, sys.Box.Volume())
}
