package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// newDomSuite is one full construction of the dom_sweep workload: the
// ceiling study's suite at one measured step.
func newDomSuite(o options) *figures.Suite {
	if o.smokeSuite != nil {
		return o.smokeSuite
	}
	cfg := figures.Default()
	cfg.Steps = 1
	cfg.Workers = o.workers
	cfg.SystemSeed = o.seed
	cfg.ClusterSeed = o.seed
	return figures.NewSuite(cfg)
}

// domRun is one network's run inside an op.
type domRun struct {
	net      string
	hostMS   float64
	alloc    uint64
	virtS    float64
	energy   float64 // last-step total energy
	bytesOut int64   // bytes sent, all ranks
}

// domOp runs the three networks at the workload's rank count on one fresh
// suite — one op. Each run is a span under the op's.
func domOp(s *figures.Suite, procs int, tr *tracer) ([]domRun, error) {
	op := tr.start("dom_sweep.op", -1)
	defer tr.end(op)
	var runs []domRun
	for _, net := range netmodel.All() {
		var a0, a1 uint64
		if tr != nil { // per-run allocation is a per-layer number
			a0 = totalAlloc()
		}
		id := tr.start("figures.RunDecomp", op)
		t0 := time.Now()
		res, err := s.RunDecomp(net, procs, 1, pmd.MiddlewareMPI, pmd.DecompDomain)
		d := time.Since(t0)
		tr.end(id)
		if tr != nil {
			a1 = totalAlloc()
		}
		if err != nil {
			return nil, fmt.Errorf("RunDecomp %s p=%d: %w", net.Name, procs, err)
		}
		run := domRun{
			net: net.Name, hostMS: d.Seconds() * 1e3, alloc: a1 - a0,
			virtS: res.Wall, energy: res.Energies[len(res.Energies)-1].Total(),
		}
		for _, a := range res.Acct {
			run.bytesOut += a.BytesSent
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// domWarm runs one p-rank domain run outside any suite, so no suite's
// cache is touched before its op is timed.
func domWarm(s *figures.Suite, procs int) error {
	_, err := pmd.Run(cluster.Config{Nodes: procs, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: s.Cfg.ClusterSeed},
		s.Cfg.Cost, pmd.Config{
			System: s.System(), MD: s.Cfg.MD, Steps: s.Cfg.Steps,
			Decomp: pmd.DecompDomain, HostWorkers: s.Cfg.Workers,
		})
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

// domChecks holds the ops against the sequential engine, each other and
// the reference.
func domChecks(r *report, ops [][]domRun, seqEnergy float64, procs int) {
	first := ops[0]
	energyOK, sameVirt := true, true
	for _, op := range ops {
		for i, run := range op {
			energyOK = energyOK && relClose(run.energy, seqEnergy, 1e-6)
			sameVirt = sameVirt && run.virtS == first[i].virtS
		}
	}
	r.must("energy_vs_sequential", energyOK,
		"last-step total energy of every run within 1e-6 of the sequential engine's %.10g", seqEnergy)
	r.must("virtual_seconds_repeat", sameVirt, "identical per-network virtual seconds over %d ops", len(ops))
	r.produced.DomSweep.Procs = procs
	r.produced.DomSweep.VirtualSeconds = map[string]float64{}
	for _, run := range first {
		r.produced.DomSweep.VirtualSeconds[run.net] = run.virtS
		r.note("virtual seconds %-20s %.9g", run.net, run.virtS)
	}
	ref, err := loadReference()
	if err != nil {
		r.check("virtual_seconds", false, false, "%v", err)
		return
	}
	if r.seed != referenceSeed || ref.DomSweep.Procs != procs {
		r.note("virtual seconds: reference comparison skipped (seed %d, p=%d only)", referenceSeed, ref.DomSweep.Procs)
		return
	}
	match := true
	for _, run := range first {
		match = match && run.virtS == ref.DomSweep.VirtualSeconds[run.net]
	}
	r.check("virtual_seconds", false, match, "matches_reference=%t", match)
}

// sequentialEnergy is the reference the parallel runs are checked
// against: the sequential engine over the same system and step count.
func sequentialEnergy(s *figures.Suite) float64 {
	reps := md.NewEngine(s.System(), s.Cfg.MD).Run(s.Cfg.Steps, nil, nil)
	return reps[len(reps)-1].Total()
}

// runDomSweep is the untraced dom_sweep run: one fresh suite per op.
func runDomSweep(o options) (*report, error) {
	r := newReport(wDomSweep, o, false)
	sz := o.sz
	setup, suites := setupMedian(sz.setupReps, func() *figures.Suite { return newDomSuite(o) })
	for len(suites) < sz.domOps {
		suites = append(suites, newDomSuite(o))
	}
	seqEnergy := sequentialEnergy(suites[0])
	if err := domWarm(suites[0], sz.domProcs); err != nil {
		return nil, err
	}

	var opMS []float64
	var ops [][]domRun
	var alloc uint64
	start := time.Now()
	for i := 0; i < sz.domOps; i++ {
		if i > 0 && capped(start) {
			r.truncated = true
			break
		}
		var runs []domRun
		var err error
		sec, a := timed(func() { runs, err = domOp(suites[i], sz.domProcs, nil) })
		if err != nil {
			return nil, err
		}
		opMS = append(opMS, sec*1e3)
		ops = append(ops, runs)
		alloc += a
	}
	r.opBlocks(opMS, alloc, setup)
	domChecks(r, ops, seqEnergy, sz.domProcs)
	return r, nil
}

// traceDomSweep is the traced dom_sweep run: one traced and one untraced
// op, then the pieces a run is made of, each timed alone.
func traceDomSweep(o options, tr *tracer) (*report, error) {
	r := newReport(wDomSweep, o, true)
	sz := o.sz
	from := snapHost()
	sTraced, sPlain := newDomSuite(o), newDomSuite(o)
	cfg := sTraced.Cfg
	seqEnergy := sequentialEnergy(sTraced)
	if err := domWarm(sTraced, sz.domProcs); err != nil {
		return nil, err
	}
	var traced, plain []domRun
	var err error
	secT, _ := timed(func() { traced, err = domOp(sTraced, sz.domProcs, tr) })
	if err != nil {
		return nil, err
	}
	secP, _ := timed(func() { plain, err = domOp(sPlain, sz.domProcs, nil) })
	if err != nil {
		return nil, err
	}
	r.attempted = 2

	var repeatMS, allocMB float64
	for _, run := range traced[1:] {
		repeatMS += run.hostMS / float64(len(traced)-1)
	}
	for _, run := range traced {
		allocMB += float64(run.alloc) / mib / float64(len(traced))
	}
	tcp := traced[0]
	evals := cfg.Steps + 1 // the initial force evaluation plus one per step
	r.scalar("pmd.run_first_ms", tcp.hostMS)
	r.scalar("pmd.run_repeat_ms", repeatMS)
	r.scalar("pmd.alloc_mb_per_run", allocMB)
	r.scalar("pmd.virt_wall_s", tcp.virtS)
	r.scalar("pmd.host_s_per_virt_s", tcp.hostMS/1e3/tcp.virtS)
	r.scalar("mpi.bytes_per_step", float64(tcp.bytesOut)/float64(evals))

	// What a run is made of, each piece alone: the seed engine every run
	// builds, the once-per-evaluation physics, and the bare collective
	// pattern on the simulated transport.
	root := tr.start("dom_sweep.pieces", -1)
	id := tr.start("md.seed_engine", root)
	t0 := time.Now()
	eng := md.NewEngine(sTraced.System(), cfg.MD)
	newEngineMS := time.Since(t0).Seconds() * 1e3
	eng.ComputeForces(nil, nil)
	seedMS := time.Since(t0).Seconds() * 1e3
	tr.end(id)
	id = tr.start("md.compute_forces", root)
	t0 = time.Now()
	for i := 0; i < evals; i++ {
		eng.ComputeForces(nil, nil)
	}
	physMS := time.Since(t0).Seconds() * 1e3
	tr.end(id)
	id = tr.start("mpi.skeleton", root)
	skelMS, colls, err := skeleton(sz.domProcs, o, cfg.Steps, tcp.bytesOut)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	r.scalar("md.seed_engine_ms", seedMS)
	r.scalar("pmd.physics_est_ms", physMS)
	r.scalar("mpi.skeleton_ms", skelMS)
	r.scalar("mpi.skeleton_colls_per_s", float64(colls)/(skelMS/1e3))
	// The seed engine's own evaluation is already one of physics_est's, so
	// only its construction is subtracted beside it.
	r.scalar("pmd.remainder_ms", tcp.hostMS-newEngineMS-physMS-skelMS)
	r.scalar("trace.overhead_share", (secT-secP)/secP)
	r.hostMetrics(from)
	domChecks(r, [][]domRun{traced, plain}, seqEnergy, sz.domProcs)
	return r, nil
}

// ---------------------------------------------------------------------------
// The bare collective pattern

// skeleton runs a bare mpi.RunOpts at p ranks whose ranks compute nothing
// and only issue the collective pattern of the domain decomposition's
// step — sim + mpi + cluster alone. The size matrices are synthetic (the
// engine's are private): a 26-neighbour halo on a near-cubic 3-D rank
// grid stands in for the halo, force-return, grid-assembly and potential-
// gather exchanges, and row and column exchanges on a near-square 2-D
// grid for the four pencil transposes. Every message carries the same
// size, chosen so one evaluation moves the bytes the real run moved.
func skeleton(p int, o options, steps int, runBytes int64) (ms float64, colls int, err error) {
	halo, row, col := skeletonPattern(p)
	evals := steps + 1
	// Per evaluation: two force returns, assembly and gather on the halo
	// pattern, two row and two column transposes; per step one more halo.
	msgs := int64(evals)*(4*nonZero(halo)+2*nonZero(row)+2*nonZero(col)) + int64(steps)*nonZero(halo)
	size := 1
	if msgs > 0 && runBytes/msgs > 1 {
		size = int(runBytes / msgs)
	}
	fill(halo, size)
	fill(row, size)
	fill(col, size)

	eval := func(r *mpi.Rank) {
		r.AlltoallvSparse(halo) // force return
		r.Allreduce(2048, 0)
		r.AlltoallvSparse(halo) // grid assembly
		r.AlltoallvSparse(col)
		r.AlltoallvSparse(row)
		r.AlltoallvSparse(row)
		r.AlltoallvSparse(col)
		r.AlltoallvSparse(halo) // potential gather
		r.AlltoallvSparse(halo) // force return
		r.Allreduce(64, 0)
	}
	t0 := time.Now()
	_, err = mpi.RunOpts(
		cluster.Config{Nodes: p, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: o.seed},
		cluster.PentiumIII1GHz(), mpi.Options{HostWorkers: o.workers},
		func(r *mpi.Rank) {
			eval(r)
			for s := 0; s < steps; s++ {
				r.AlltoallvSparse(halo)
				eval(r)
				r.Barrier()
			}
		})
	if err != nil {
		return 0, 0, fmt.Errorf("collective skeleton: %w", err)
	}
	return time.Since(t0).Seconds() * 1e3, evals*10 + steps*2, nil
}

// skeletonPattern returns 0/1 p×p matrices: the periodic 26-neighbour
// coupling of a 3-D rank grid, and the row and column couplings of a 2-D
// rank grid.
func skeletonPattern(p int) (halo, row, col [][]int) {
	dx, dy, dz := factor3(p)
	halo, row, col = zeros(p), zeros(p), zeros(p)
	at := func(x, y, z int) int {
		return ((x+dx)%dx*dy+(y+dy)%dy)*dz + (z+dz)%dz
	}
	for x := 0; x < dx; x++ {
		for y := 0; y < dy; y++ {
			for z := 0; z < dz; z++ {
				me := at(x, y, z)
				for ox := -1; ox <= 1; ox++ {
					for oy := -1; oy <= 1; oy++ {
						for oz := -1; oz <= 1; oz++ {
							if nb := at(x+ox, y+oy, z+oz); nb != me {
								halo[me][nb] = 1
							}
						}
					}
				}
			}
		}
	}
	_, p3 := factor2(p)
	for q := 0; q < p; q++ {
		for q2 := 0; q2 < p; q2++ {
			if q2 == q {
				continue
			}
			if q/p3 == q2/p3 {
				row[q][q2] = 1
			}
			if q%p3 == q2%p3 {
				col[q][q2] = 1
			}
		}
	}
	return halo, row, col
}

// factor2 splits p into the two closest factors, larger first.
func factor2(p int) (a, b int) {
	b = 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			b = f
		}
	}
	return p / b, b
}

// factor3 splits p into three near-equal factors, largest first.
func factor3(p int) (a, b, c int) {
	c = 1
	for f := 1; f*f*f <= p; f++ {
		if p%f == 0 {
			c = f
		}
	}
	a, b = factor2(p / c)
	return a, b, c
}

func zeros(p int) [][]int {
	m := make([][]int, p)
	for i := range m {
		m[i] = make([]int, p)
	}
	return m
}

func nonZero(m [][]int) int64 {
	var n int64
	for _, row := range m {
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

func fill(m [][]int, size int) {
	for _, row := range m {
		for j, v := range row {
			if v != 0 {
				row[j] = size
			}
		}
	}
}
