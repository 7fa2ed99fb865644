package pmd

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func TestParseDecomp(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DecompKind
		ok   bool
	}{
		{"", DecompReplicated, true},
		{"replicated", DecompReplicated, true},
		{"domain", DecompDomain, true},
		{"slab", 0, false},
		{"DOMAIN", 0, false},
	} {
		got, err := ParseDecomp(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseDecomp(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestValidateDecompRejectsUntransformableMesh: a mesh dimension with a
// prime factor above the FFT's largest radix is a typed error naming that
// dimension, for both decompositions and before any per-decomposition
// check; a solvated box reaches the first such mesh, 148 = 4·37, at about
// 300 000 atoms.
func TestValidateDecompRejectsUntransformableMesh(t *testing.T) {
	for _, kind := range []DecompKind{DecompReplicated, DecompDomain} {
		for _, tc := range []struct {
			pme  md.PMEConfig
			want string // substring of the constraint, "" for a valid mesh
		}{
			{md.PMEConfig{K1: 74, K2: 37, K3: 10, Order: 4}, "K1=74 has a prime factor above 31"},
			{md.PMEConfig{K1: 80, K2: 37, K3: 10, Order: 4}, "K2=37 has a prime factor above 31"},
			{md.PMEConfig{K1: 148, K2: 148, K3: 148, Order: 4}, "K1=148 has a prime factor above 31"},
			{md.PMEConfig{K1: 28, K2: 28, K3: 28, Order: 4}, ""},
		} {
			err := ValidateDecomp(kind, 4, tc.pme)
			if tc.want == "" {
				if err != nil {
					t.Errorf("%v on %+v: %v", kind, tc.pme, err)
				}
				continue
			}
			var de *DecompError
			if !errors.As(err, &de) || !strings.Contains(de.Constraint, tc.want) {
				t.Errorf("%v on %+v: got %v, want a *DecompError with %q", kind, tc.pme, err, tc.want)
			}
		}
	}
}

func TestValidateDecomp(t *testing.T) {
	paper := md.PaperPME() // K1=80, K2=36, K3=48
	small := md.PMEConfig{K1: 24, K2: 24, K3: 24, Order: 4}
	for _, tc := range []struct {
		kind DecompKind
		p    int
		pme  md.PMEConfig
		ok   bool
		want string // substring of the constraint
	}{
		{DecompReplicated, 1, paper, true, ""},
		{DecompReplicated, 8, paper, true, ""},
		{DecompReplicated, 80, paper, true, ""},
		{DecompReplicated, 81, paper, false, "K1=80"},
		{DecompReplicated, 32, small, false, "K1=24"},
		{DecompDomain, 1, paper, true, ""},
		{DecompDomain, 16, paper, true, ""},
		{DecompDomain, 64, paper, true, ""},
		{DecompDomain, 256, paper, true, ""},
		{DecompDomain, 1024, paper, true, ""},
		// 2 × 1031 (prime): p3 = 1031 exceeds every mesh axis.
		{DecompDomain, 2062, paper, false, "p3"},
		{DecompDomain, 37 * 37, paper, false, "p2"},
		{DecompReplicated, 0, paper, false, "at least one"},
		// Meshes the PME cannot transform, for either decomposition.
		{DecompReplicated, 4, md.PMEConfig{K1: 25, K2: 24, K3: 24, Order: 4}, false, "K1=25 is odd"},
		{DecompDomain, 4, md.PMEConfig{K1: 13, K2: 32, K3: 32, Order: 4}, false, "K1=13 is odd"},
		{DecompDomain, 4, md.PMEConfig{K1: 24, K2: 7, K3: 24, Order: 4}, false, "below 2·order = 8"},
		{DecompReplicated, 1, md.PMEConfig{K1: 24, K2: 24, K3: 9, Order: 5}, false, "below 2·order = 10"},
	} {
		err := ValidateDecomp(tc.kind, tc.p, tc.pme)
		if tc.ok {
			if err != nil {
				t.Errorf("ValidateDecomp(%v, %d) unexpectedly failed: %v", tc.kind, tc.p, err)
			}
			continue
		}
		var de *DecompError
		if !errors.As(err, &de) {
			t.Fatalf("ValidateDecomp(%v, %d): want *DecompError, got %v", tc.kind, tc.p, err)
		}
		if de.Ranks != tc.p || de.Decomp != tc.kind {
			t.Errorf("DecompError fields %+v do not echo the request (%v, %d)", de, tc.kind, tc.p)
		}
		if !strings.Contains(de.Error(), tc.want) {
			t.Errorf("ValidateDecomp(%v, %d) error %q does not name constraint %q", tc.kind, tc.p, de, tc.want)
		}
	}
}

func TestPencilFactors(t *testing.T) {
	for _, tc := range []struct{ p, p2, p3 int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4},
		{64, 8, 8}, {72, 8, 9}, {256, 16, 16}, {1024, 32, 32}, {7, 1, 7},
	} {
		p2, p3 := pencilFactors(tc.p)
		if p2 != tc.p2 || p3 != tc.p3 {
			t.Errorf("pencilFactors(%d) = %d×%d, want %d×%d", tc.p, p2, p3, tc.p2, tc.p3)
		}
	}
}

func TestFactor3(t *testing.T) {
	for _, tc := range []struct{ p, dx, dy, dz int }{
		{1, 1, 1, 1}, {2, 2, 1, 1}, {4, 2, 2, 1}, {8, 2, 2, 2},
		{16, 4, 2, 2}, {64, 4, 4, 4}, {256, 8, 8, 4}, {1024, 16, 8, 8},
	} {
		dx, dy, dz := factor3(tc.p)
		if dx*dy*dz != tc.p {
			t.Fatalf("factor3(%d) = %d×%d×%d does not tile", tc.p, dx, dy, dz)
		}
		if dx != tc.dx || dy != tc.dy || dz != tc.dz {
			t.Errorf("factor3(%d) = %d×%d×%d, want %d×%d×%d", tc.p, dx, dy, dz, tc.dx, tc.dy, tc.dz)
		}
	}
}

// pencilFactors' documented contract over every rank count up to 2048:
// p2 × p3 = p with 1 ≤ p2 ≤ p3, and p2 is the largest divisor of p not
// exceeding √p. Where ValidateDecomp accepts p on a mesh, every pencil
// block of the stage-1 grid and of both transposes holds at least one line.
func TestPencilFactorsProperties(t *testing.T) {
	meshes := []md.PMEConfig{md.PaperPME(), {K1: 24, K2: 24, K3: 24, Order: 4}, {K1: 16, K2: 12, K3: 20, Order: 4}}
	for p := 1; p <= 2048; p++ {
		p2, p3 := pencilFactors(p)
		if p2 < 1 || p3 < p2 || p2*p3 != p {
			t.Fatalf("pencilFactors(%d) = %d×%d", p, p2, p3)
		}
		for d := p2 + 1; d*d <= p; d++ {
			if p%d == 0 {
				t.Fatalf("pencilFactors(%d) = %d×%d, but %d divides p and is ≤ √p", p, p2, p3, d)
			}
		}
		for _, pme := range meshes {
			if ValidateDecomp(DecompDomain, p, pme) != nil {
				continue
			}
			for _, part := range [][2]int{{pme.K2, p2}, {pme.K3, p3}, {pme.K1/2 + 1, p2}, {pme.K2, p3}} {
				off := kernels.Partition(part[0], part[1], nil)
				for i := 0; i < part[1]; i++ {
					if off[i+1] == off[i] {
						t.Fatalf("p=%d accepted on %+v, but splitting %d lines %d ways leaves block %d empty", p, pme, part[0], part[1], i)
					}
				}
			}
		}
	}
}

// factor3's documented contract over every rank count up to 2048:
// dx × dy × dz = p with dx ≥ dy ≥ dz ≥ 1, and no factorization of p into
// three has a smaller inter-domain surface dx·dy + dy·dz + dz·dx.
func TestFactor3Properties(t *testing.T) {
	for p := 1; p <= 2048; p++ {
		dx, dy, dz := factor3(p)
		if dz < 1 || dy < dz || dx < dy || dx*dy*dz != p {
			t.Fatalf("factor3(%d) = %d×%d×%d", p, dx, dy, dz)
		}
		best := dx*dy + dy*dz + dz*dx
		for a := 1; a <= p; a++ {
			if p%a != 0 {
				continue
			}
			for b := 1; b <= p/a; b++ {
				if (p/a)%b != 0 {
					continue
				}
				c := p / a / b
				if s := a*b + b*c + c*a; s < best {
					t.Fatalf("factor3(%d) = %d×%d×%d (surface %d), but %d×%d×%d has surface %d", p, dx, dy, dz, best, a, b, c, s)
				}
			}
		}
	}
}

// TestSizeTablesTileTheMesh: the replicated ranks read the shared mesh in
// place, so no executed copy checks the bytes the model ships for the grid
// assembly, the two transposes and the potential all-gather. On the
// paper's mesh, at rank counts with and without idle y-line owners, the
// tables must tile it: no rank sends to itself, the backward transpose is
// the forward one reversed, a rank's forward blocks plus the block it
// keeps cover its x-slab, and the all-gather assembles the whole mesh.
func TestSizeTablesTileTheMesh(t *testing.T) {
	pme := md.PaperPME()
	k1, k2, k3 := pme.K1, pme.K2, pme.K3
	for _, p := range []int{1, 2, 3, 8, 16, 36, 37, 64, 80} {
		xOff := kernels.Partition(k1, p, nil)
		yOff := kernels.Partition(k2, p, nil)
		tb := newSizeTables(kernels.Partition(3552, p, nil), xOff, yOff, k2, k3)
		var tf, kept, conv int
		for i := 0; i < p; i++ {
			xW, yW := xOff[i+1]-xOff[i], yOff[i+1]-yOff[i]
			if tb.sizesGrid[i][i] != 0 || tb.sizesTF[i][i] != 0 || tb.sizesTB[i][i] != 0 {
				t.Fatalf("p=%d: rank %d sends to itself", p, i)
			}
			var rowTF, rowGrid int
			for j := 0; j < p; j++ {
				if tb.sizesTB[i][j] != tb.sizesTF[j][i] {
					t.Fatalf("p=%d: sizesTB[%d][%d] = %d, sizesTF[%d][%d] = %d", p, i, j, tb.sizesTB[i][j], j, i, tb.sizesTF[j][i])
				}
				rowTF += tb.sizesTF[i][j]
				rowGrid += tb.sizesGrid[i][j]
			}
			if want := 16 * xW * (k2 - yW) * k3; rowTF != want {
				t.Fatalf("p=%d: rank %d ships %d forward-transpose bytes, want %d", p, i, rowTF, want)
			}
			if want := 8 * (k1 - xW) * k2 * k3; rowGrid != want {
				t.Fatalf("p=%d: rank %d ships %d grid bytes, want %d", p, i, rowGrid, want)
			}
			tf += rowTF
			kept += 16 * xW * yW * k3
			conv += tb.blocksConv[i]
		}
		if tf+kept != 16*k1*k2*k3 {
			t.Fatalf("p=%d: forward transpose %d + kept %d bytes, want the mesh's %d", p, tf, kept, 16*k1*k2*k3)
		}
		if conv != 8*k1*k2*k3 {
			t.Fatalf("p=%d: potential all-gather %d bytes, want %d", p, conv, 8*k1*k2*k3)
		}
	}
}

// runDecomp executes the shared test workload under the given
// decomposition, middleware and host-worker count.
func runDecomp(t *testing.T, decomp DecompKind, p, steps, workers int, mw MiddlewareKind) *Result {
	t.Helper()
	res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System:      testSystem(100, 24, 1),
		MD:          testMDConfig(),
		Steps:       steps,
		Middleware:  mw,
		Decomp:      decomp,
		HostWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecompDeterminismMatrix is the interface's determinism claim: for
// each decomposition and middleware, every host-worker count produces
// bitwise-identical results (energies, forces-as-positions, timings,
// accounting).
func TestDecompDeterminismMatrix(t *testing.T) {
	workers := []int{0, 1, 2, runtime.GOMAXPROCS(0) + 1}
	for _, decomp := range []DecompKind{DecompReplicated, DecompDomain} {
		for _, mw := range []MiddlewareKind{MiddlewareMPI, MiddlewareCMPI} {
			ref := runDecomp(t, decomp, 4, 3, workers[0], mw)
			for _, w := range workers[1:] {
				got := runDecomp(t, decomp, 4, 3, w, mw)
				mustEqualResults(t, fmt.Sprintf("%v/%v workers=%d", decomp, mw, w), ref, got)
			}
		}
	}
}

// TestDomainMatchesSequential closes the loop against the sequential
// engine the same way the replicated path is validated: bit for bit,
// since every run's trajectory is the engine's.
func TestDomainMatchesSequential(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 5
	seq := md.NewEngine(sys, testMDConfig())
	want := seq.Run(steps, nil, nil)
	res, err := Run(clusterCfg(4, 1, netmodel.MyrinetGM()), cluster.PentiumIII1GHz(), Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      steps,
		Middleware: MiddlewareMPI,
		Decomp:     DecompDomain,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustMatchEngine(t, "domain p=4", res, want, seq.Pos)
}

// TestDomainKillRestartBitwiseIdentical: the checkpoint/restart machinery
// is decomposition-agnostic — a domain run killed mid-flight and resumed
// from the on-disk ring stitches to the uninterrupted domain run bitwise.
func TestDomainKillRestartBitwiseIdentical(t *testing.T) {
	sys := testSystem(48, 24, 3)
	cost := cluster.PentiumIII1GHz()
	cl := clusterCfg(4, 1, netmodel.TCPGigE())
	const steps, halt = 6, 3
	mk := func(dir string, steps int) ResilientConfig {
		return ResilientConfig{
			Config: Config{
				System:     sys,
				MD:         testMDConfig(),
				Steps:      steps,
				Middleware: MiddlewareMPI,
				Decomp:     DecompDomain,
			},
			CheckpointEvery: 2,
			RestartCost:     5,
			CheckpointDir:   dir,
		}
	}

	ref, err := RunResilient(cl, cost, mk("", steps))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	halted, err := RunResilient(cl, cost, mk(dir, halt)) // killed after step 3
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := RunResilient(cl, cost, mk(dir, steps))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == nil || resumed.Resumed.Step != 2 {
		t.Fatalf("restart did not resume from the step-2 checkpoint: %+v", resumed.Resumed)
	}

	stitched := append(append([]md.EnergyReport{}, halted.Energies[:resumed.Resumed.Step]...), resumed.Energies...)
	if len(stitched) != len(ref.Energies) {
		t.Fatalf("stitched %d steps, reference %d", len(stitched), len(ref.Energies))
	}
	for i := range stitched {
		if stitched[i] != ref.Energies[i] {
			t.Fatalf("step %d: stitched energies differ from uninterrupted domain reference", i)
		}
	}
	for i, p := range ref.Final.FinalPos {
		if resumed.Final.FinalPos[i] != p {
			t.Fatalf("atom %d: final position differs from uninterrupted domain reference", i)
		}
	}
}

// TestRunRejectsUntileableRanks: Run surfaces the typed tiling error for
// both decompositions.
func TestRunRejectsUntileableRanks(t *testing.T) {
	sys := testSystem(48, 24, 3)
	_, err := Run(clusterCfg(32, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System:     sys,
		MD:         testMDConfig(), // K1 = 24 < 32 ranks
		Steps:      1,
		Middleware: MiddlewareMPI,
	})
	var de *DecompError
	if !errors.As(err, &de) {
		t.Fatalf("want *DecompError for 32 ranks on a 24-slab mesh, got %v", err)
	}
}

// TestPMEIdleRanksGauge: the replicated path reports slab-idle ranks; the
// domain path reports zero.
func TestPMEIdleRanksGauge(t *testing.T) {
	sys := testSystem(100, 24, 1)
	cfg := testMDConfig()
	// An asymmetric mesh: 16 ranks all own x-slabs (K1=32) but only 8 own
	// spectrum y-lines (K2=8) — the other 8 idle through the line stage.
	cfg.PME = md.PMEConfig{Beta: 0.4, K1: 32, K2: 8, K3: 8, Order: 4}
	for _, tc := range []struct {
		decomp DecompKind
		want   float64
	}{
		{DecompReplicated, 8},
		{DecompDomain, 0},
	} {
		reg := obs.NewRegistry()
		_, err := Run(clusterCfg(16, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
			System:     sys,
			MD:         cfg,
			Steps:      1,
			Middleware: MiddlewareMPI,
			Decomp:     tc.decomp,
			Obs:        reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := gaugeValue(reg, "repro_pme_idle_ranks")
		if !ok {
			t.Fatalf("%v: repro_pme_idle_ranks not exported", tc.decomp)
		}
		if got != tc.want {
			t.Errorf("%v: repro_pme_idle_ranks = %v, want %v", tc.decomp, got, tc.want)
		}
	}
}

func gaugeValue(reg *obs.Registry, name string) (float64, bool) {
	for _, pt := range reg.Snapshot() {
		if pt.Name == name {
			return pt.Value, true
		}
	}
	return 0, false
}

// TestGoroutineBudget pins the transport's process model: rank processes
// are the only goroutines a simulation owns. Message transfers,
// deliveries and watchdog timers — hundreds in flight at any instant of a
// 64-rank exchange — are callback processes, and every rank charges its
// compute inline. Sampled at every step boundary, where deliveries and
// stale timers of the step's collectives are still pending (the driver's
// OnStep fires as the last rank completes the step). Every run, over its
// own tape or a shared one, adds one goroutine, which evaluates ahead of
// the ranks and may be evaluating at a step boundary: at one host worker
// the engine's kernels run on that goroutine, at W > 1 a kernel adds W-1
// more. HostWorkers is the one bound: MD.KernelWorkers adds no goroutine
// to a run.
//
// Inside an evaluation, where a boundary sample cannot see, the peak of
// the pooled Runs' helpers (kernels.Mark) bounds the goroutines the
// evaluation spawns and joins: the run-ahead goroutine and its helpers are
// at most max(1, HostWorkers) at any instant, on the tape's one engine —
// also while a run at another rank count over the same tape is in flight
// with it.
func TestGoroutineBudget(t *testing.T) {
	const p = 64
	sys := testSystem(100, 24, 1)
	var inFlight, peak atomic.Int64
	kernels.Mark = func(delta int) {
		if n := inFlight.Add(int64(delta)); delta > 0 {
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
		}
	}
	defer func() { kernels.Mark = nil }()
	for _, tc := range []struct {
		name          string
		wd            mpi.Watchdog
		workers       int
		kernelWorkers int
		tape          *Tape
	}{
		{"plain", mpi.Watchdog{}, 0, 0, nil},
		{"watchdog", mpi.DefaultWatchdog(), 0, 0, nil},
		{"watchdog+host-workers", mpi.DefaultWatchdog(), 3, 0, nil},
		{"watchdog+kernel-workers", mpi.DefaultWatchdog(), 0, 4, nil},
		{"watchdog+tape", mpi.DefaultWatchdog(), 0, 0, NewTape()},
		{"watchdog+host-workers+tape", mpi.DefaultWatchdog(), 3, 0, NewTape()},
	} {
		cfg := domainCfg(sys, 3)
		cfg.Watchdog = tc.wd
		cfg.HostWorkers = tc.workers
		cfg.MD.KernelWorkers = tc.kernelWorkers
		cfg.Tape = tc.tape
		lanes := max(1, tc.workers)
		base := runtime.NumGoroutine()
		bound, samples := 0, 0
		var otherErr error
		rcfg := ResilientConfig{Config: cfg, OnStep: func(step int, _ StepTiming, _ md.EnergyReport) bool {
			bound = max(bound, runtime.NumGoroutine())
			samples++
			if step == 0 && tc.tape != nil {
				// A run at another rank count over the same tape, wholly in
				// flight while the 64-rank run evaluates ahead, is served
				// by the same engine.
				_, otherErr = Run(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
					System: sys, MD: cfg.MD, Steps: 1, Decomp: DecompDomain, HostWorkers: tc.workers, Tape: tc.tape,
				})
			}
			return false
		}}
		peak.Store(0)
		if _, err := RunResilient(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), rcfg); err != nil || otherErr != nil {
			t.Fatalf("%s: %v; the 4-rank run: %v", tc.name, err, otherErr)
		}
		if samples != cfg.Steps {
			t.Fatalf("%s: sampled %d of %d steps", tc.name, samples, cfg.Steps)
		}
		if budget := base + p + 2 + lanes; bound > budget {
			t.Errorf("%s: %d goroutines at a step boundary, budget %d (%d before the run + %d ranks + 2 + %d kernel workers of the run-ahead)",
				tc.name, bound, budget, base, p, lanes)
		}
		if tc.tape != nil && tc.tape.built != 1 {
			t.Errorf("%s: the tape built %d engines for two runs in flight together", tc.name, tc.tape.built)
		}
		if helpers := peak.Load(); helpers > int64(lanes-1) {
			t.Errorf("%s: %d pooled helpers in flight inside the evaluations, budget %d (%d kernel workers, one the run-ahead goroutine)",
				tc.name, helpers, lanes-1, lanes)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("%s: %d helpers still in flight after the runs", tc.name, n)
		}
	}
}
