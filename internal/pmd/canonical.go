package pmd

import (
	"sync"
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

// canonical is the one physics provider of the runs at rank count p over
// its tape, which holds the seed it starts from and the scratch it
// evaluates on.
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
// An evaluation spends the HostWorkers of the run that built c: the list
// build scans W ranges of home cells at once, the rank loops run W ranks
// at a time on W lanes of a scratch off the tape's free list, each lane
// running its rank's kernels inline, and each wave merges rank-ascending
// before the next starts — the same bits at every W. HostWorkers is the
// one host bound an evaluation reads. A rank's merge visits only the atoms its terms write:
// per list generation, each rank keeps the atoms its classic blocks
// reference.
//
// Concurrency: a snapshot is published in two steps, its list generation
// (the listed point) and then the whole state (done); see canonState.
// Step s is evaluated inside its once, by whichever evalAhead goroutine of
// the runs over c's tape reaches it first; the others wait on the once. A
// rank never evaluates: it waits in list only for the listed point, which
// the running evaluation passes before its forces, and for done in
// energies, which a domain rank calls at the end of its step's force
// pipeline and a replicated one before its first classic segment. A
// goroutine enters step s only once step s-1 is done, so at most one
// evaluation of c is ever in flight (it holds sc alone), and a published
// field is immutable while read. c keeps the snapshots its tape keeps
// (Tape.stale): every one on a shared tape, a two-step window on a run's
// private one, whose run-ahead therefore never gets more than one step
// past the ranks (await).
type canonical struct {
	p   int
	sys *topol.System
	pme md.PMEConfig
	*seed

	// Replicated partitions at rank count p. Rank rk's interpolation and
	// exclusion correction write atoms [atomOff[rk], recipHi[rk]): its
	// block and the exclusion partners above it.
	atomOff, yOff []int
	recipHi       []int
	classicParts

	ranks *kernels.Pool // HostWorkers wide: runs the lanes of a wave
	xOff  []int         // the mesh x-planes each lane transforms

	sc *scratch // the scratch of the evaluation in flight, nil between evaluations
	// Per rank, the atoms its classic blocks of list generation touchGen
	// reference, each once; the tape drops them when no run is in flight.
	touched  [][]int32
	touchGen int

	t   *Tape       // the tape c evaluates for, which counts its bytes
	dom *domainView // the domain decomposition's reading of c's states

	mu     sync.Mutex
	states map[int]*canonState
	ahead  int       // the last step a window tape's run-ahead may evaluate: one past the latest a rank asked for, 0 before any
	wake   sync.Cond // on mu; broadcast when ahead grows or a run-ahead stops
}

// canonState is one step's immutable physics snapshot. Step -1 is the
// initial force evaluation of velocity Verlet. All slices are freshly
// allocated per step (or inherited unchanged from the previous step, or,
// at step -1, the seed's) so a rank still reading step s races with
// nothing while the run-ahead evaluates step s+1, and a tape's snapshot
// serves any number of runs at once.
//
// A snapshot is published in two steps. Closing listed publishes pos and
// the list generation (listGen, listOrigin, pairs, rebuilt, distEvals);
// closing done publishes the rest (vel, frcTotal, rep and the work
// counters), which the evaluator writes in between.
type canonState struct {
	step         int
	once         sync.Once
	listed, done chan struct{}
	prev         *canonState // cleared after evaluation

	pos, vel, frcTotal []vec.V
	rep                md.EnergyReport

	// Per rank, what the replicated arithmetic counts: the classic terms
	// over the rank's partitions, and the interpolation plus exclusion
	// correction over its atom block.
	classicWork, recipWork []work.Counters

	listing
}

// listing is a snapshot's neighbour list: its generation, the positions it
// was built at and its pairs, all inherited unchanged by the generation's
// later steps.
type listing struct {
	listGen    int
	listOrigin []vec.V
	pairs      []space.Pair
	rebuilt    bool
	distEvals  int64 // full list-search cost when rebuilt
}

// newCanonical returns the empty trajectory at rank count p over t's seed.
func newCanonical(p int, cfg Config, t *Tape) *canonical {
	sys := cfg.System
	n := sys.N()
	pmeCfg := cfg.MD.PME
	c := &canonical{
		p:      p,
		sys:    sys,
		pme:    pmeCfg,
		seed:   t.seed,
		t:      t,
		dom:    &domainView{t: t},
		states: map[int]*canonState{},
	}
	c.wake.L = &c.mu
	c.atomOff = kernels.Partition(n, p, nil)
	c.recipHi = make([]int, p)
	for rk := range c.recipHi {
		hi := c.atomOff[rk+1]
		for i := c.atomOff[rk]; i < c.atomOff[rk+1]; i++ {
			for _, j := range sys.Excl.Of(i) {
				hi = max(hi, int(j)+1)
			}
		}
		c.recipHi[rk] = hi
	}
	c.classicParts = newClassicParts(sys, p)
	c.yOff = kernels.Partition(pmeCfg.K2, p, nil)
	c.ranks = kernels.NewPool(cfg.HostWorkers)
	c.xOff = kernels.Partition(pmeCfg.K1, min(c.ranks.Workers(), p), nil)
	return c
}

// lanes returns the lanes of the evaluation in flight: the first of its
// scratch's, one per x-block of the mesh.
func (c *canonical) lanes() []lane { return c.sc.lanes[:len(c.xOff)-1] }

// list returns step's snapshot once its positions and list generation are
// published: every run has an evalAhead goroutine that evaluates each of
// its steps, so a rank never evaluates; it waits only for the list while
// the forces are still being computed, and for the rest in energies.
func (c *canonical) list(step int) *canonState {
	st := c.lookup(step, true)
	<-st.listed
	return st
}

// eval evaluates st exactly once across the run-ahead goroutines of every
// run sharing c and returns it wholly published. step -1 is the initial
// evaluation; step s > -1 requires step s-1 to have been evaluated.
func (c *canonical) eval(st *canonState) *canonState {
	st.once.Do(func() {
		c.sc = c.t.take(c)
		if st.step == -1 {
			c.evalInit(st)
		} else {
			c.evalStep(st)
		}
		c.t.put(c.sc)
		c.sc = nil
		st.prev = nil
		c.t.bytes.Add(st.bytes())
		close(st.done)
	})
	return st
}

// energies waits for st to be wholly published and returns its energies.
func (st *canonState) energies() md.EnergyReport {
	<-st.done
	return st.rep
}

// lookup returns step's snapshot, entering an unevaluated one if there is
// none yet and letting go of the one the tape no longer keeps. A rank's
// lookup lets the run-ahead evaluate the step after step.
func (c *canonical) lookup(step int, rank bool) *canonState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank && step >= c.ahead {
		c.ahead = step + 1
		c.wake.Broadcast()
	}
	st, ok := c.states[step]
	if !ok {
		st = &canonState{step: step, listed: make(chan struct{}), done: make(chan struct{})}
		if step > -1 {
			st.prev = c.states[step-1]
		}
		c.states[step] = st
		if old, ok := c.t.stale(step); ok {
			delete(c.states, old)
		}
	}
	return st
}

// onListed, when set (by tests), runs on the evaluating goroutine between
// a snapshot's list publication and its forces.
var onListed func(c *canonical, step int)

// evalAhead evaluates states -1 … steps-1 in order on a goroutine of its
// own, so step s+1's physics runs on another core while the ranks
// simulate step s, and a rank that asks for a step's list (list) finds the
// step being evaluated; where another run's goroutine reached a step
// first, this one waits on that step's once. On a window tape the
// goroutine evaluates step s > 0 only once a rank has asked for step s-1,
// so it never lets go of a snapshot a rank has yet to read (entering step
// 0 lets go of none). The returned stop
// ends the goroutine once its evaluation in flight, if any, is done, and
// waits for it: after stop, every state of c is fully evaluated.
func (c *canonical) evalAhead(steps int) (stop func()) {
	quit := false // under c.mu
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := -1; s < steps && c.await(s, &quit); s++ {
			c.eval(c.lookup(s, false))
		}
	}()
	return func() {
		c.mu.Lock()
		quit = true
		c.wake.Broadcast()
		c.mu.Unlock()
		<-done
	}
}

// await waits, on a window tape, until the run-ahead may evaluate step or
// quit is set, and reports whether it goes on.
func (c *canonical) await(step int, quit *bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.t.window && step > c.ahead && !*quit {
		c.wake.Wait()
	}
	return !*quit
}

// bytes is what st holds beyond the step before it and the seed: its
// per-step arrays and, when it starts a list generation after step -1, the
// list and the list origin.
func (st *canonState) bytes() int64 {
	const wc = int64(unsafe.Sizeof(work.Counters{}))
	b := int64(unsafe.Sizeof(*st)) + vecBytes*int64(len(st.frcTotal)) + wc*int64(len(st.classicWork)+len(st.recipWork))
	if st.step > -1 {
		b += vecBytes * int64(len(st.pos)+len(st.vel))
		if st.rebuilt {
			b += vecBytes*int64(len(st.listOrigin)) + pairBytes*int64(len(st.pairs))
		}
	}
	return b
}

// evalInit starts the state from the seed — the sequential engine's
// state, optionally restored from a checkpoint, and the step −1 list
// generation every rank count shares — then evaluates the forces.
func (c *canonical) evalInit(st *canonState) {
	st.pos, st.vel = c.seedPos, c.seedVel
	st.listing = c.t.listing(c.sc.lister)
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

// waves runs eval(rk, l) for every rank rk, one wave of len(c.lanes()) ranks
// at a time, each rank on its own lane, and after each wave merge(rk, l)
// for the wave's ranks in ascending order.
func (c *canonical) waves(eval, merge func(rk int, l *lane)) {
	lanes := c.lanes()
	w := len(lanes)
	for r0 := 0; r0 < c.p; r0 += w {
		n := min(w, c.p-r0)
		c.ranks.Run(n, func(i int) { eval(r0+i, &lanes[i]) })
		for i := 0; i < n; i++ {
			merge(r0+i, &lanes[i])
		}
	}
}

// planes runs fn over every x-plane of the mesh, the lanes splitting them.
func (c *canonical) planes(fn func(p *fft.Plan2D, plane []complex128)) {
	planeLen := c.pme.K2 * c.pme.K3
	lanes := c.lanes()
	c.ranks.Run(len(lanes), func(i int) {
		for x := c.xOff[i]; x < c.xOff[i+1]; x++ {
			fn(lanes[i].plan2d, c.sc.fullGrid[x*planeLen:(x+1)*planeLen])
		}
	})
}

// forceEval evaluates the forces and energies of st.pos in the replicated
// order: the per-rank partitions, each into a zeroed lane scratch, merged
// rank-ascending. The scratch reuse is bitwise safe: every accumulator
// starts at +0.0 and x + (−x) rounds to +0.0, so no merge input ever
// differs from a per-rank array of its own. For the same reason no
// accumulator — force or charge grid — can hold −0.0 (a −0.0 term added
// to a +0.0 accumulator gives +0.0), so adding a scratch entry that is
// +0.0 is a bitwise no-op: a rank's force merge visits only the atoms its
// terms write, clearing each as it goes, and the grid merge skips every
// cell outside the rank's B-spline footprint, and every cell inside it
// that summed to zero.
func (c *canonical) forceEval(st *canonState) {
	sys := c.sys
	n := sys.N()
	pmeCfg := c.pme
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	planeLen := k2 * k3

	// Neighbour-list management: a rebuild starts a new list generation.
	if !c.integ.ListValid(st.pos, st.listOrigin) {
		st.listGen++
		var wl work.Counters
		st.pairs = c.sc.lister.Append(st.pos, nil, &wl)
		st.distEvals = wl.ListDistEvals
		st.listOrigin = append([]vec.V(nil), st.pos...)
		st.rebuilt = true
	}
	close(st.listed)
	if onListed != nil {
		onListed(c, st.step)
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
	if c.touched == nil || c.touchGen != st.listGen {
		c.touch(st.pairs, pairOff)
		c.touchGen = st.listGen
	}
	fullGrid := c.sc.fullGrid
	clear(fullGrid)
	order := pmeCfg.Order
	c.waves(func(rk int, l *lane) {
		l.e = c.classic(rk, c.ffield, l.nbk, st.pos, st.pairs[pairOff[rk]:pairOff[rk+1]], c.touched[rk], l.partial, &st.classicWork[rk])
		l.pme.Spread(st.pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], l.grid)
	}, func(rk int, l *lane) {
		for _, i := range c.touched[rk] {
			st.frcTotal[i] = st.frcTotal[i].Add(l.partial[i])
			l.partial[i] = vec.Zero
		}
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
							fullGrid[base+z] += complex(s, 0)
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
			l.scalar = spectrumLines(l.plan1d, c.psi, l.eC, l.cC, fullGrid, y*k3, planeLen, k1, k3, y, l.scalar)
		}
	}, func(rk int, l *lane) { st.rep.Recip += l.scalar })
	c.planes((*fft.Plan2D).Inverse)
	// Interpolation + exclusion correction per rank block: forces merge
	// rank-ascending on top of the classic sum, the ExclCorr scalars too.
	c.waves(func(rk int, l *lane) {
		l.scalar = recipForces(l.pme, sys, fullGrid, st.pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], l.partial, &st.recipWork[rk])
	}, func(rk int, l *lane) {
		for i := c.atomOff[rk]; i < c.recipHi[rk]; i++ {
			st.frcTotal[i] = st.frcTotal[i].Add(l.partial[i])
			l.partial[i] = vec.Zero
		}
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

// touch lists, per rank, the atoms its classic blocks reference — its
// bonded terms, its 1-4 pairs and its block of pairs — each once, in the
// order of their first reference.
func (c *canonical) touch(pairs []space.Pair, pairOff []int) {
	if len(c.touched) != c.p {
		c.touched = make([][]int32, c.p)
	}
	c.waves(func(rk int, l *lane) {
		c.touched[rk] = append(c.touched[rk][:0], c.refs(rk, pairs[pairOff[rk]:pairOff[rk+1]], l)...)
	}, func(int, *lane) {})
}

// refs returns, in l's scratch, each atom that rank rk's classic blocks
// reference once; pairs is the rank's block of the pair list.
func (c *canonical) refs(rk int, pairs []space.Pair, l *lane) []int32 {
	l.stamp++
	seen, stamp, out := l.seen, l.stamp, l.atoms[:0]
	add := func(i int32) {
		if seen[i] != stamp {
			seen[i] = stamp
			out = append(out, i)
		}
	}
	sys := c.sys
	for _, t := range sys.Bonds[c.bondOff[rk]:c.bondOff[rk+1]] {
		for _, i := range t {
			add(i)
		}
	}
	for _, t := range sys.Angles[c.angOff[rk]:c.angOff[rk+1]] {
		for _, i := range t {
			add(i)
		}
	}
	for _, t := range sys.Dihedrals[c.dihOff[rk]:c.dihOff[rk+1]] {
		for _, i := range t {
			add(i)
		}
	}
	for _, t := range sys.Impropers[c.imprOff[rk]:c.imprOff[rk+1]] {
		for _, i := range t {
			add(i)
		}
	}
	for _, t := range sys.Pairs14[c.p14Off[rk]:c.p14Off[rk+1]] {
		for _, i := range t {
			add(i)
		}
	}
	for _, p := range pairs {
		add(p.I)
		add(p.J)
	}
	return out
}

// classic evaluates rank rk's classic forces into out, which must be zero
// on atoms, and returns its energies; pairs is the rank's block of the
// pair list and atoms what rank rk's classic blocks reference.
func (cp *classicParts) classic(rk int, f *ff.ForceField, nbk *ff.NonbondedKernel,
	pos []vec.V, pairs []space.Pair, atoms []int32, out []vec.V, wc *work.Counters) ff.Energies {
	var e ff.Energies
	e.Bond = f.BondsRange(pos, out, wc, cp.bondOff[rk], cp.bondOff[rk+1])
	e.Angle = f.AnglesRange(pos, out, wc, cp.angOff[rk], cp.angOff[rk+1])
	e.Dihedral = f.DihedralsRange(pos, out, wc, cp.dihOff[rk], cp.dihOff[rk+1])
	e.Improper = f.ImpropersRange(pos, out, wc, cp.imprOff[rk], cp.imprOff[rk+1])
	e.Add(nbk.ComputeAtoms(pos, pairs, atoms, out, wc))
	e.Add(f.Pairs14Range(pos, out, wc, cp.p14Off[rk], cp.p14Off[rk+1]))
	return e
}

// spectrumLines runs the reciprocal sum over the k3 x-lines of mesh row
// m2, which start at buf[base] and step by stride along x: forward 1-D
// FFTs, the influence multiply with ψ read line by line into eC and cC
// (k1 long), inverse FFTs. The lines' energy is added to eRecip term by
// term, z-outer and m1-inner, and the sum returned.
func spectrumLines(plan *fft.Plan, psi *ewald.Influence, eC, cC []float64, buf []complex128, base, stride, k1, k3, m2 int, eRecip float64) float64 {
	plan.ForwardLines(buf, base, stride, k3)
	for z := 0; z < k3; z++ {
		psi.Line(m2, z, eC, cC)
		for m1 := 0; m1 < k1; m1++ {
			i := base + m1*stride + z
			v := buf[i]
			eRecip += eC[m1] * (real(v)*real(v) + imag(v)*imag(v))
			buf[i] = v * complex(cC[m1], 0)
		}
	}
	plan.InverseLines(buf, base, stride, k3)
	return eRecip
}

// recipForces interpolates the PME forces of atoms [lo, hi) from the
// convolved potential mesh into out, adds the excluded-pair correction of
// the same exclusion rows and returns its energy. It writes atoms [lo, hi)
// and their exclusion partners above hi, where out must be zero.
func recipForces(pme *ewald.PME, sys *topol.System, conv []complex128, pos []vec.V,
	charges []float64, lo, hi int, out []vec.V, wc *work.Counters) float64 {
	pme.Interpolate(conv, pos, charges, lo, hi, out)
	return ewald.ExclusionCorrectionRange(sys.Box, pos, charges, sys.Excl, pme.Beta, lo, hi, out, wc)
}
