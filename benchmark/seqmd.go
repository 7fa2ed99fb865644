package main

import (
	"math"
	"time"

	"repro/benchmark/bstat"
	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
)

// seqSystem is one full construction of the seq_md workload: the paper's
// 3552-atom myoglobin system, relaxed, under a 1-worker PME engine whose
// forces are current.
type seqSystem struct {
	sys *topol.System
	eng *md.Engine
}

func seqConfig(seed uint64, kernelWorkers int) md.Config {
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 300
	cfg.Seed = seed
	cfg.KernelWorkers = kernelWorkers
	return cfg
}

func buildSeq(seed uint64, relax int) seqSystem {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: seed})
	md.Relax(sys, relax)
	eng := md.NewEngine(sys, seqConfig(seed, 1))
	eng.ComputeForces(nil, nil)
	return seqSystem{sys: sys, eng: eng}
}

// seqEngines is the pair of engines seq_md advances in lockstep on one
// trajectory: the single-threaded baseline and the W-worker kernel pool.
type seqEngines struct {
	e1, eW       *md.Engine
	last1, lastW md.EnergyReport
	steps        int
	step10       float64 // total energy after step 10 (NaN until reached)
}

func newSeqEngines(s seqSystem, seed uint64, w int) *seqEngines {
	eW := md.NewEngine(s.sys, seqConfig(seed, w))
	eW.ComputeForces(nil, nil)
	return &seqEngines{e1: s.eng, eW: eW, step10: math.NaN()}
}

// advance steps both engines n times, untimed.
func (p *seqEngines) advance(n int) {
	for i := 0; i < n; i++ {
		p.last1 = p.e1.Step(nil, nil)
		p.lastW = p.eW.Step(nil, nil)
		p.steps++
		if p.steps == 10 {
			p.step10 = p.last1.Total()
		}
	}
}

// stepSample is one timed MD step.
type stepSample struct {
	ms      float64
	rebuilt bool // the step rebuilt the neighbour list (≈ 8 % of steps do)
}

// seqBlock times n steps of one engine as one block — its value is block
// wall / n, so the periodic rebuild steps count at the rate they occur —
// and every step on its own beside it. It returns the block's mean ms per
// step, the step samples and the bytes allocated. With a tracer the block
// is a span named name and every step a span named name+".step".
func seqBlock(e *md.Engine, n int, tr *tracer, name string) (meanMS float64, steps []stepSample, alloc uint64, last md.EnergyReport) {
	steps = make([]stepSample, 0, n)
	sec, alloc := timed(func() {
		blk := tr.start(name, -1)
		for i := 0; i < n; i++ {
			id := tr.start(name+".step", blk)
			t0 := time.Now()
			last = e.Step(nil, nil)
			d := time.Since(t0)
			tr.end(id)
			steps = append(steps, stepSample{ms: d.Seconds() * 1e3, rebuilt: e.ListWasRebuilt()})
		}
		tr.end(blk)
	})
	return sec * 1e3 / float64(n), steps, alloc, last
}

// stepMS is the typical step of the traced run's attribution: the median
// of the plain steps and the median of the rebuild steps, each weighted by
// how often it occurred. The layer probes are medians of repetitions, and
// a sum of medians is held against this, not against a block mean, which
// also carries whatever the host took away during the block.
func stepMS(steps []stepSample) float64 {
	var plain, rebuild []float64
	for _, s := range steps {
		if s.rebuilt {
			rebuild = append(rebuild, s.ms)
		} else {
			plain = append(plain, s.ms)
		}
	}
	return (bstat.Median(plain)*float64(len(plain)) + bstat.Median(rebuild)*float64(len(rebuild))) / float64(len(steps))
}

// seqChecks holds the two engines against each other and the reference.
func seqChecks(r *report, p *seqEngines) {
	finite := !math.IsNaN(p.last1.Total()) && !math.IsInf(p.last1.Total(), 0)
	r.must("energies_finite", finite, "total %.10g kcal/mol after %d steps", p.last1.Total(), p.steps)
	r.must("workers_bitwise_equal", p.last1 == p.lastW,
		"final EnergyReport of KernelWorkers=1 and KernelWorkers=%d", r.workers)
	ref, err := loadReference()
	switch {
	case err != nil:
		r.must("step10_energy", false, "%v", err)
	case r.seed != referenceSeed || math.IsNaN(p.step10):
		r.note("step10_energy: skipped (reference is for seed %d and needs 10 steps)", referenceSeed)
	default:
		r.must("step10_energy", relClose(p.step10, ref.SeqMD.Step10TotalEnergy, 1e-6),
			"%.12g against reference %.12g", p.step10, ref.SeqMD.Step10TotalEnergy)
	}
}

// runSeqMD is the untraced seq_md run: alternating fixed-size blocks of
// the 1-worker and the W-worker engine over one trajectory.
func runSeqMD(o options) *report {
	r := newReport(wSeqMD, o, false)
	sz := o.sz
	// The hot path allocates next to nothing (0.1–1.5 KB a step, moving
	// with the seed's rebuild count), so alloc_mb_per_op counts the whole
	// run from the first construction on.
	a0 := totalAlloc()
	setup, built := setupMedian(sz.setupReps, func() seqSystem { return buildSeq(o.seed, sz.seqRelax) })
	p := newSeqEngines(built[len(built)-1], o.seed, o.workers)
	p.advance(sz.seqWarmSteps)

	var blocks1, blocksW []float64 // block means, ms per step
	var steps1, stepsW []stepSample
	var wallMS float64
	start := time.Now()
	for i := 0; i < sz.seqPairs; i++ {
		if i > 0 && capped(start) {
			r.truncated = true
			break
		}
		m1, s1, _, l1 := seqBlock(p.e1, sz.seqBlockSteps, nil, "")
		mW, sW, _, lW := seqBlock(p.eW, sz.seqBlockSteps, nil, "")
		p.last1, p.lastW = l1, lW
		p.steps += sz.seqBlockSteps
		blocks1, blocksW = append(blocks1, m1), append(blocksW, mW)
		steps1, stepsW = append(steps1, s1...), append(stepsW, sW...)
		wallMS += (m1 + mW) * float64(sz.seqBlockSteps)
	}
	ops := len(steps1) + len(stepsW)
	r.attempted = ops
	r.blocks("op_ms", blocks1)
	r.blocks("op_mc_ms", blocksW) // per-layer: printed here, gated nowhere
	r.scalar("jobs_per_s", float64(ops)/(wallMS/1e3))
	r.scalar("alloc_mb_per_op", float64(totalAlloc()-a0)/mib/float64(ops))
	r.scalar("setup_s", setup)
	noteSteps(r, "KernelWorkers=1", steps1)
	noteSteps(r, "KernelWorkers=W", stepsW)
	seqChecks(r, p)
	r.produced.SeqMD.Step10TotalEnergy = p.step10
	return r
}

// noteSteps prints the distribution of single steps beside the block
// means: on a shared host the quartiles say how much of a block mean is
// the host's.
func noteSteps(r *report, label string, steps []stepSample) {
	var all, rebuild []float64
	for _, s := range steps {
		all = append(all, s.ms)
		if s.rebuilt {
			rebuild = append(rebuild, s.ms)
		}
	}
	r.note("%s: %d steps, %d rebuilds; step ms p25 %.4g p50 %.4g p75 %.4g mean %.4g",
		label, len(all), len(rebuild), bstat.Percentile(all, 0.25), bstat.Percentile(all, 0.5), bstat.Percentile(all, 0.75), mean(all))
}

// seqProbes times each layer's public entry point directly, on the
// trajectory's current state, once per call of cycle. traceSeqMD calls it
// after every block pair, so the probes sample the same minutes of the
// host as the steps they are held against.
type seqProbes struct {
	e        *md.Engine
	tr       *tracer
	frc      []vec.V
	lister   *ff.PairLister
	pairs    []space.Pair
	kernels  [2]*ff.NonbondedKernel // 1 worker, W workers
	pmes     [2]*ewald.PME
	plans    [2]*fft.RealPlan3D // nil for an odd K1: the engine does not use the real plan either
	grid     []float64
	spectrum []complex128

	list, bonded, excl   []float64 // ms, one per cycle
	nonbonded, recip, ft [2][]float64
}

var probeSuffix = [2]string{"", "_mc"}

func newSeqProbes(e *md.Engine, workers int, tr *tracer) *seqProbes {
	q := &seqProbes{e: e, tr: tr, frc: make([]vec.V, len(e.Pos)), lister: e.FF.NewPairLister()}
	pc := e.Cfg.PME
	for i, pool := range []*kernels.Pool{kernels.NewPool(1), kernels.NewPool(workers)} {
		q.kernels[i] = e.FF.NewNonbondedKernel()
		q.kernels[i].SetPool(pool)
		q.pmes[i] = ewald.NewPME(e.Sys.Box, pc.Beta, pc.K1, pc.K2, pc.K3, pc.Order)
		q.pmes[i].SetPool(pool)
		if plan, err := fft.NewRealPlan3D(pc.K1, pc.K2, pc.K3); err == nil {
			plan.SetPool(pool)
			q.plans[i] = plan
			q.grid = make([]float64, plan.Len())
			q.spectrum = make([]complex128, plan.SpectrumLen())
		}
	}
	for i := range q.grid {
		q.grid[i] = float64(i%17) - 8
	}
	q.cycle() // the first evaluation allocates the buffers; drop its samples
	q.list, q.bonded, q.excl = nil, nil, nil
	q.nonbonded, q.recip, q.ft = [2][]float64{}, [2][]float64{}, [2][]float64{}
	return q
}

// cycle runs every probe once. The force terms run as whole evaluations,
// in the engine's order, so each term meets the cache state it meets
// inside a step: timed back to back on its own, a term reads warm data the
// step never leaves it.
func (q *seqProbes) cycle() {
	e, pos, charges := q.e, q.e.Pos, q.e.FF.Charges()
	pc := e.Cfg.PME
	root := q.tr.start("seq_md.probes", -1)
	defer q.tr.end(root)
	part := func(name string, fn func()) float64 {
		id := q.tr.start(name, root)
		t0 := time.Now()
		fn()
		ms := time.Since(t0).Seconds() * 1e3
		q.tr.end(id)
		return ms
	}
	q.list = append(q.list, part("space.list_build", func() { q.pairs = q.lister.Build(pos, nil) }))
	for i, suffix := range probeSuffix {
		bonded := part("ff.bonded", func() { e.FF.Bonded(pos, q.frc, nil) })
		q.nonbonded[i] = append(q.nonbonded[i], part("ff.nonbonded"+suffix, func() { q.kernels[i].Compute(pos, q.pairs, q.frc, nil) }))
		bonded += part("ff.bonded", func() { e.FF.Pairs14(pos, q.frc, nil) })
		q.recip[i] = append(q.recip[i], part("ewald.recip"+suffix, func() { q.pmes[i].Recip(pos, charges, q.frc, nil) }))
		excl := part("ewald.excl", func() {
			ewald.ExclusionCorrection(e.Sys.Box, pos, charges, e.Sys.Excl, pc.Beta, q.frc, nil)
		})
		if i == 0 { // bonded terms and the exclusion correction do not use the pool
			q.bonded, q.excl = append(q.bonded, bonded), append(q.excl, excl)
		}
	}
	for i, suffix := range probeSuffix {
		if plan := q.plans[i]; plan != nil {
			q.ft[i] = append(q.ft[i], part("fft.roundtrip"+suffix, func() {
				plan.Forward(q.grid, q.spectrum)
				plan.Inverse(q.spectrum, q.grid)
			}))
		}
	}
}

// traceSeqMD is the traced seq_md run: per-step spans and the engine's
// own phase counters on alternate blocks, and after every block pair each
// layer's public entry point timed directly on the engine's current
// positions. Every probe is reported as the median over the cycles.
func traceSeqMD(o options, tr *tracer) *report {
	r := newReport(wSeqMD, o, true)
	sz := o.sz
	from := snapHost()
	p := newSeqEngines(buildSeq(o.seed, sz.seqRelax), o.seed, o.workers)
	p.advance(sz.seqWarmSteps)
	probes := newSeqProbes(p.e1, o.workers, tr)

	reg := obs.NewRegistry()
	phase := func(name string) float64 {
		return reg.Value("repro_phase_seconds_total", obs.L("rank", "0"), obs.L("phase", name), obs.L("bucket", "compute"))
	}
	var traced1, plain1 []stepSample
	var tracedBlocks, plainBlocks, blocksW []float64 // block means, ms per step
	var alloc uint64
	for i := 0; i < 2*sz.seqTracePairs; i++ {
		t := tr
		if i%2 == 1 {
			t = nil // the untraced half of the overhead comparison
		}
		if t != nil {
			p.e1.SetObs(reg)
		}
		m1, s1, a1, l1 := seqBlock(p.e1, sz.seqTraceSteps, t, "md.block_1w")
		p.e1.SetObs(nil)
		mW, _, _, lW := seqBlock(p.eW, sz.seqTraceSteps, nil, "")
		p.last1, p.lastW = l1, lW
		p.steps += sz.seqTraceSteps
		blocksW = append(blocksW, mW)
		probes.cycle()
		if t == nil {
			plain1 = append(plain1, s1...)
			plainBlocks = append(plainBlocks, m1)
			continue
		}
		traced1 = append(traced1, s1...)
		tracedBlocks = append(tracedBlocks, m1)
		alloc += a1
	}
	r.attempted = (len(tracedBlocks) + len(plainBlocks) + len(blocksW)) * sz.seqTraceSteps

	var stepMSs, rebuildMSs []float64
	for _, s := range traced1 {
		stepMSs = append(stepMSs, s.ms)
		if s.rebuilt {
			rebuildMSs = append(rebuildMSs, s.ms)
		}
	}
	n := float64(len(traced1))
	r.scalar("md.step_p50_ms", bstat.Percentile(stepMSs, 0.5))
	r.scalar("md.step_p90_ms", bstat.Percentile(stepMSs, 0.9))
	r.note("md.step_p90_ms over %d steps", len(stepMSs))
	r.scalar("md.rebuild_step_ms", bstat.Median(rebuildMSs))
	r.scalar("md.rebuilds", float64(len(rebuildMSs)))
	r.scalar("md.classic_ms", phase("classic")*1e3/n)
	r.scalar("md.pme_ms", phase("pme")*1e3/n)
	r.scalar("md.alloc_b_per_step", float64(alloc)/n)

	listMS, bonded, excl := bstat.Median(probes.list), bstat.Median(probes.bonded), bstat.Median(probes.excl)
	nb1, nbW := bstat.Median(probes.nonbonded[0]), bstat.Median(probes.nonbonded[1])
	rc1, rcW := bstat.Median(probes.recip[0]), bstat.Median(probes.recip[1])
	fft1, fftW := bstat.Median(probes.ft[0]), bstat.Median(probes.ft[1])
	r.note("layer probes: medians over %d cycles, one after each block pair", len(probes.list))
	w := float64(o.workers)
	step1, stepW := bstat.Median(plainBlocks), bstat.Median(blocksW)
	r.blocks("op_mc_ms", blocksW)
	r.scalar("space.list_build_ms", listMS)
	r.scalar("ff.pairs", float64(len(probes.pairs)))
	r.scalar("ff.mpairs_per_s", float64(len(probes.pairs))/nb1/1e3)
	r.scalar("ff.nonbonded_ms", nb1)
	r.scalar("ff.nonbonded_mc_ms", nbW)
	r.scalar("ff.bonded_ms", bonded)
	r.scalar("ewald.recip_ms", rc1)
	r.scalar("ewald.recip_mc_ms", rcW)
	r.scalar("ewald.excl_ms", excl)
	r.scalar("fft.roundtrip_ms", fft1)
	r.scalar("fft.roundtrip_mc_ms", fftW)
	r.scalar("kernels.par_eff.step", step1/(w*stepW))
	r.scalar("kernels.par_eff.nonbonded", nb1/(w*nbW))
	r.scalar("kernels.par_eff.recip", rc1/(w*rcW))
	r.scalar("kernels.par_eff.fft", fft1/(w*fftW))
	// A step is the list build on its rebuild steps plus the force terms
	// on every step; what is left is integration, constraints and the
	// list-validity scan.
	stepAll := stepMS(append(append([]stepSample(nil), traced1...), plain1...))
	parts := listMS*float64(len(rebuildMSs))/n + nb1 + bonded + rc1 + excl
	r.scalar("md.integrate_ms", stepAll-parts)
	r.scalar("md.explained_share", parts/stepAll)
	r.scalar("trace.overhead_share", overheadShare(tracedBlocks, plainBlocks))
	r.hostMetrics(from)
	seqChecks(r, p)
	return r
}
