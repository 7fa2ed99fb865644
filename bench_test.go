package repro

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
)

// Kernel and step benchmarks: the real computation, with meaningful ns/op.
// The figure suite has no Go benchmark — a figure re-read from the run
// cache times nothing; benchmark/'s figure_all workload is its instrument.

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
