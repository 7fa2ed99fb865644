package repro

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/figures"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
)

// The figure benchmarks share one suite running the paper's full protocol
// (10 MD steps of the 3552-atom system, p ∈ {1, 2, 4, 8}). The first
// benchmark touching a cell pays its cost; the per-figure model metrics
// reported below are the reproduction deliverable, the wall-clock ns/op of
// cached re-reads is not meaningful.
var (
	suiteOnce  sync.Once
	benchSuite *figures.Suite
)

func suite() *figures.Suite {
	suiteOnce.Do(func() {
		benchSuite = figures.NewSuite(figures.Default())
	})
	return benchSuite
}

// report emits a modeled-seconds metric for the largest processor count.
func reportModel(b *testing.B, name string, v float64) {
	b.Helper()
	b.ReportMetric(v, name)
}

// BenchmarkFig3ReferenceWallClock regenerates Fig. 3: total energy
// calculation wall time on the reference platform.
func BenchmarkFig3ReferenceWallClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig3()
		if err != nil {
			b.Fatal(err)
		}
		reportModel(b, "model_total_p1_s", rows[0].Total())
		reportModel(b, "model_total_p8_s", rows[len(rows)-1].Total())
		reportModel(b, "model_pme_p2_s", rows[1].PME)
	}
}

// BenchmarkFig4ReferenceBreakdown regenerates Fig. 4: comp/comm/sync
// percentages of the classic and PME parts.
func BenchmarkFig4ReferenceBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig4()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		_, cm, cs := last.Classic.Percent()
		_, pm, ps := last.PME.Percent()
		reportModel(b, "classic_overhead_p8_pct", cm+cs)
		reportModel(b, "pme_overhead_p8_pct", pm+ps)
	}
}

// BenchmarkFig5NetworkWallClock regenerates Fig. 5: the network sweep.
func BenchmarkFig5NetworkWallClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nets, err := suite().Fig56()
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range nets {
			last := n.Rows[len(n.Rows)-1]
			key := "total_p8_tcp_s"
			switch n.Network {
			case "SCore on Ethernet":
				key = "total_p8_score_s"
			case "Myrinet":
				key = "total_p8_myrinet_s"
			}
			reportModel(b, key, last.Classic.Total()+last.PME.Total())
		}
	}
}

// BenchmarkFig6NetworkBreakdown regenerates Fig. 6 from the same sweep.
func BenchmarkFig6NetworkBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nets, err := suite().Fig56()
		if err != nil {
			b.Fatal(err)
		}
		last := nets[0].Rows[len(nets[0].Rows)-1] // TCP
		_, pm, ps := last.PME.Percent()
		reportModel(b, "tcp_pme_overhead_p8_pct", pm+ps)
	}
}

// BenchmarkFig7CommSpeed regenerates Fig. 7: per-node communication speed
// with its variability.
func BenchmarkFig7CommSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig7()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.P != 8 {
				continue
			}
			switch r.Network {
			case "TCP/IP on Ethernet":
				reportModel(b, "tcp_avg_mbs", r.AvgMBs)
				reportModel(b, "tcp_spread_mbs", r.MaxMBs-r.MinMBs)
			case "Myrinet":
				reportModel(b, "myrinet_avg_mbs", r.AvgMBs)
			}
		}
	}
}

// BenchmarkFig8Middleware regenerates Fig. 8: MPI vs CMPI.
func BenchmarkFig8Middleware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.P != 8 {
				continue
			}
			if r.Middleware == "CMPI" {
				reportModel(b, "cmpi_total_p8_s", r.Classic+r.PME)
			} else {
				reportModel(b, "mpi_total_p8_s", r.Classic+r.PME)
			}
		}
	}
}

// BenchmarkFig9DualProcessor regenerates Fig. 9: uni vs dual CPUs/node.
func BenchmarkFig9DualProcessor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig9()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.P != 8 {
				continue
			}
			switch {
			case r.Network == "TCP/IP on Ethernet" && r.CPUs == 2:
				reportModel(b, "tcp_dual_total_p8_s", r.Classic+r.PME)
			case r.Network == "TCP/IP on Ethernet" && r.CPUs == 1:
				reportModel(b, "tcp_uni_total_p8_s", r.Classic+r.PME)
			case r.Network == "Myrinet" && r.CPUs == 2:
				reportModel(b, "myrinet_dual_total_p8_s", r.Classic+r.PME)
			}
		}
	}
}

// BenchmarkFactorialDesign regenerates the full 12-cell factorial table of
// §3.1.
func BenchmarkFactorialDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suite().Factorial()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("factorial cells = %d", len(rows))
		}
	}
}

// BenchmarkStudyAllFigures renders the entire text report through the
// public façade (what cmd/charmmbench -figure all does).
func BenchmarkStudyAllFigures(b *testing.B) {
	study := &core.Study{Suite: suite()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := study.All(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Kernel benchmarks with meaningful ns/op: the real computation.

// BenchmarkSequentialMDStep measures one real MD step of the full
// 3552-atom PME workload on the host machine.
func BenchmarkSequentialMDStep(b *testing.B) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 300
	e := md.NewEngine(sys, cfg)
	e.ComputeForces(nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil, nil)
	}
}

// BenchmarkFFT3D measures one forward+inverse half-spectrum r2c/c2r 3-D
// transform of the paper's 80×36×48 PME charge grid.
func BenchmarkFFT3D(b *testing.B) {
	const nx, ny, nz = 80, 36, 48
	r := rng.New(9)
	p, err := fft.NewRealPlan3D(nx, ny, nz)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, nx*ny*nz)
	for i := range x {
		x[i] = r.Range(-1, 1)
	}
	spec := make([]complex128, p.SpectrumLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x, spec)
		p.Inverse(spec, x)
	}
}

// BenchmarkPMEReciprocal measures one full reciprocal-space evaluation
// (spread → FFT → influence → FFT → interpolate) on the paper mesh with a
// myoglobin-sized charge set.
func BenchmarkPMEReciprocal(b *testing.B) {
	box := space.NewBox(56.702, 25.181, 33.575)
	r := rng.New(10)
	const n = 3552
	pos := make([]vec.V, n)
	charges := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(r.Range(0, box.L.X), r.Range(0, box.L.Y), r.Range(0, box.L.Z))
		charges[i] = r.Range(-0.8, 0.8)
	}
	p := ewald.NewPME(box, 0.34, 80, 36, 48, 4)
	frc := make([]vec.V, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Recip(pos, charges, frc, nil)
	}
}

// BenchmarkNonbondedKernel measures the short-range pair loop over the
// relaxed myoglobin neighbour list with the SoA table kernel.
func BenchmarkNonbondedKernel(b *testing.B) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	f := ff.New(sys, ff.PMEOptions())
	pairs := f.BuildPairs(sys.Pos, nil)
	k := f.NewNonbondedKernel()
	frc := make([]vec.V, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Compute(sys.Pos, pairs, frc, nil)
	}
}

// BenchmarkNeighbourListBuild measures one steady-state neighbour-list
// rebuild (cell binning, pair scan, exclusion filter) on the relaxed
// myoglobin system: what a sequential step pays each time the skin is
// crossed.
func BenchmarkNeighbourListBuild(b *testing.B) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	pl := ff.New(sys, ff.PMEOptions()).NewPairLister()
	pl.Build(sys.Pos, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Build(sys.Pos, nil)
	}
}

// ---------------------------------------------------------------------------
// Pooled-kernel variants: the same workloads with the physics kernels
// spread over GOMAXPROCS host cores (kernels.Pool). Run them with
// `-cpu 1,4` to get 1-worker and 4-worker entries under one name — the
// pool is sized per iteration-independent setup from the GOMAXPROCS the
// benchmark harness set, so the -cpu list directly sets the worker count.

// benchPoolWorkers is the kernel pool width for the *Parallel
// benchmarks: the GOMAXPROCS of this benchmark invocation.
func benchPoolWorkers() int { return runtime.GOMAXPROCS(0) }

// BenchmarkSequentialMDStepParallel measures one real MD step of the full
// 3552-atom PME workload with the pooled multi-core kernels.
func BenchmarkSequentialMDStepParallel(b *testing.B) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 300
	cfg.KernelWorkers = benchPoolWorkers()
	e := md.NewEngine(sys, cfg)
	e.ComputeForces(nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil, nil)
	}
}

// BenchmarkFFT3DParallel measures the pooled half-spectrum 3-D transform
// on the paper's PME grid.
func BenchmarkFFT3DParallel(b *testing.B) {
	const nx, ny, nz = 80, 36, 48
	r := rng.New(9)
	p, err := fft.NewRealPlan3D(nx, ny, nz)
	if err != nil {
		b.Fatal(err)
	}
	p.SetPool(kernels.NewPool(benchPoolWorkers()))
	x := make([]float64, nx*ny*nz)
	for i := range x {
		x[i] = r.Range(-1, 1)
	}
	spec := make([]complex128, p.SpectrumLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x, spec)
		p.Inverse(spec, x)
	}
}

// BenchmarkPMEReciprocalParallel measures the pooled reciprocal-space
// evaluation (chunked spread → pooled FFT → pooled interpolate).
func BenchmarkPMEReciprocalParallel(b *testing.B) {
	box := space.NewBox(56.702, 25.181, 33.575)
	r := rng.New(10)
	const n = 3552
	pos := make([]vec.V, n)
	charges := make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(r.Range(0, box.L.X), r.Range(0, box.L.Y), r.Range(0, box.L.Z))
		charges[i] = r.Range(-0.8, 0.8)
	}
	p := ewald.NewPME(box, 0.34, 80, 36, 48, 4)
	p.SetPool(kernels.NewPool(benchPoolWorkers()))
	frc := make([]vec.V, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Recip(pos, charges, frc, nil)
	}
}

// BenchmarkNonbondedKernelParallel measures the sharded short-range pair
// loop over the relaxed myoglobin neighbour list.
func BenchmarkNonbondedKernelParallel(b *testing.B) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	f := ff.New(sys, ff.PMEOptions())
	pairs := f.BuildPairs(sys.Pos, nil)
	k := f.NewNonbondedKernel()
	k.SetPool(kernels.NewPool(benchPoolWorkers()))
	frc := make([]vec.V, sys.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Compute(sys.Pos, pairs, frc, nil)
	}
}

// BenchmarkParallelStepSimulated measures one simulated 8-rank parallel
// step end to end (physics execution + discrete-event transport).
func BenchmarkParallelStepSimulated(b *testing.B) {
	benchParallelStep(b, 8, pmd.DecompReplicated)
}

// BenchmarkParallelStepDomain measures one simulated 16-rank parallel
// step under the spatial domain decomposition with the pencil PME — the
// past-the-slab-ceiling configuration the replicated path cannot reach
// efficiently.
func BenchmarkParallelStepDomain(b *testing.B) {
	benchParallelStep(b, 16, pmd.DecompDomain)
}

func benchParallelStep(b *testing.B, ranks int, decomp pmd.DecompKind) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := pmd.Run(
			cluster.Config{Nodes: ranks, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: 1},
			cluster.PentiumIII1GHz(),
			pmd.Config{System: sys, MD: cfg, Steps: 1, Middleware: pmd.MiddlewareMPI, Decomp: decomp},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}
