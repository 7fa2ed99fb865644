package pmd

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/trace"
	"repro/internal/vec"
)

// testSystem builds a compact water box sized for fast parallel tests.
func testSystem(nw int, l float64, seed uint64) *topol.System {
	s := &topol.System{
		Box:   space.NewBox(l, l, l),
		Types: topol.StandardTypes(),
	}
	r := rng.New(seed)
	side := int(math.Ceil(math.Cbrt(float64(nw))))
	spacing := l / float64(side)
	placed := 0
	for ix := 0; ix < side && placed < nw; ix++ {
		for iy := 0; iy < side && placed < nw; iy++ {
			for iz := 0; iz < side && placed < nw; iz++ {
				base := vec.New(
					(float64(ix)+0.5)*spacing+r.Range(-0.2, 0.2),
					(float64(iy)+0.5)*spacing+r.Range(-0.2, 0.2),
					(float64(iz)+0.5)*spacing+r.Range(-0.2, 0.2),
				)
				res := int32(len(s.Residues))
				s.Residues = append(s.Residues, topol.Residue{Name: "TIP3", First: int32(len(s.Atoms))})
				add := func(name string, typ int32, q float64, p vec.V) int32 {
					i := int32(len(s.Atoms))
					s.Atoms = append(s.Atoms, topol.Atom{Name: name, Type: typ, Charge: q, Residue: res})
					s.Pos = append(s.Pos, s.Box.Wrap(p))
					return i
				}
				ow := add("OW", topol.TypeOW, -0.834, base)
				h1 := add("HW1", topol.TypeHW, 0.417, base.Add(vec.New(0.76, 0.59, 0)))
				h2 := add("HW2", topol.TypeHW, 0.417, base.Add(vec.New(-0.76, 0.59, 0)))
				s.Bonds = append(s.Bonds, [2]int32{ow, h1}, [2]int32{ow, h2})
				s.Residues[res].Last = int32(len(s.Atoms))
				placed++
			}
		}
	}
	s.DeriveConnectivity()
	return s
}

func testMDConfig() md.Config {
	cfg := md.PMEDefaultConfig()
	cfg.FF.CutOn, cfg.FF.CutOff, cfg.FF.ListCutoff = 7, 9, 11
	cfg.PME = md.PMEConfig{Beta: 0.4, K1: 24, K2: 24, K3: 24, Order: 4}
	cfg.FF.Beta = 0.4
	cfg.Temperature = 200
	cfg.Seed = 11
	return cfg
}

func clusterCfg(nodes, cpus int, net netmodel.Params) cluster.Config {
	return cluster.Config{Nodes: nodes, CPUsPerNode: cpus, Net: net, Seed: 1}
}

func runParallel(t *testing.T, sys *topol.System, p int, steps int, mw MiddlewareKind, net netmodel.Params) *Result {
	t.Helper()
	res, err := Run(clusterCfg(p, 1, net), cluster.PentiumIII1GHz(), Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      steps,
		Middleware: mw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParallelMatchesSequential(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 5
	seq := md.NewEngine(sys, testMDConfig())
	want := seq.Run(steps, nil, nil)

	for _, p := range []int{1, 2, 4} {
		res := runParallel(t, sys, p, steps, MiddlewareMPI, netmodel.MyrinetGM())
		if len(res.Energies) != steps {
			t.Fatalf("p=%d: %d step energies", p, len(res.Energies))
		}
		for s := 0; s < steps; s++ {
			g, w := res.Energies[s], want[s]
			if rel := math.Abs(g.Total()-w.Total()) / math.Abs(w.Total()); rel > 1e-6 {
				t.Fatalf("p=%d step %d: total %g vs sequential %g (rel %g)", p, s, g.Total(), w.Total(), rel)
			}
			if rel := math.Abs(g.Recip-w.Recip) / (1 + math.Abs(w.Recip)); rel > 1e-6 {
				t.Fatalf("p=%d step %d: recip %g vs %g", p, s, g.Recip, w.Recip)
			}
			if rel := math.Abs(g.Classic()-w.Classic()) / (1 + math.Abs(w.Classic())); rel > 1e-6 {
				t.Fatalf("p=%d step %d: classic %g vs %g", p, s, g.Classic(), w.Classic())
			}
		}
		if d := vec.MaxNormDiff(res.FinalPos, seq.Pos); d > 1e-6 {
			t.Fatalf("p=%d: final positions deviate by %g Å", p, d)
		}
	}
}

func TestParallelConsistentAcrossP(t *testing.T) {
	sys := testSystem(100, 24, 2)
	a := runParallel(t, sys, 2, 4, MiddlewareMPI, netmodel.TCPGigE())
	b := runParallel(t, sys, 4, 4, MiddlewareMPI, netmodel.TCPGigE())
	for s := range a.Energies {
		if rel := math.Abs(a.Energies[s].Total()-b.Energies[s].Total()) / math.Abs(a.Energies[s].Total()); rel > 1e-8 {
			t.Fatalf("step %d: p=2 vs p=4 energies differ by rel %g", s, rel)
		}
	}
	if d := vec.MaxNormDiff(a.FinalPos, b.FinalPos); d > 1e-8 {
		t.Fatalf("p=2 vs p=4 positions deviate by %g", d)
	}
}

func TestCMPIMatchesPhysics(t *testing.T) {
	// The middleware changes timing, never physics.
	sys := testSystem(64, 24, 3)
	a := runParallel(t, sys, 4, 3, MiddlewareMPI, netmodel.TCPGigE())
	b := runParallel(t, sys, 4, 3, MiddlewareCMPI, netmodel.TCPGigE())
	for s := range a.Energies {
		if a.Energies[s].Total() != b.Energies[s].Total() {
			t.Fatalf("step %d: MPI vs CMPI energies differ", s)
		}
	}
}

func TestSingleRankHasNoCommunication(t *testing.T) {
	sys := testSystem(64, 24, 4)
	res := runParallel(t, sys, 1, 3, MiddlewareMPI, netmodel.TCPGigE())
	for _, st := range res.Timings[0] {
		if st.Classic.Comm != 0 || st.PME.Comm != 0 || st.Classic.Sync != 0 || st.PME.Sync != 0 {
			t.Fatalf("p=1 booked communication: %+v", st)
		}
		if st.Classic.Comp <= 0 || st.PME.Comp <= 0 {
			t.Fatalf("p=1 missing compute: %+v", st)
		}
	}
}

func TestPhaseAccountingConservation(t *testing.T) {
	sys := testSystem(64, 24, 5)
	res := runParallel(t, sys, 4, 3, MiddlewareMPI, netmodel.TCPGigE())
	for rank, steps := range res.Timings {
		for s, st := range steps {
			for _, ph := range []PhaseSample{st.Classic, st.PME} {
				if d := math.Abs(ph.Comp + ph.Comm + ph.Sync - ph.Wall); d > 1e-9 {
					t.Fatalf("rank %d step %d: comp+comm+sync != wall (diff %g)", rank, s, d)
				}
			}
		}
	}
}

func TestComputeTimeShrinksWithP(t *testing.T) {
	sys := testSystem(100, 24, 6)
	one := runParallel(t, sys, 1, 2, MiddlewareMPI, netmodel.MyrinetGM())
	four := runParallel(t, sys, 4, 2, MiddlewareMPI, netmodel.MyrinetGM())
	c1, p1 := one.PhaseTotals()
	c4, p4 := four.PhaseTotals()
	if c4.Comp >= c1.Comp*0.5 {
		t.Fatalf("classic comp did not parallelize: %g at p=4 vs %g at p=1", c4.Comp, c1.Comp)
	}
	if p4.Comp >= p1.Comp*0.5 {
		t.Fatalf("PME comp did not parallelize: %g at p=4 vs %g at p=1", p4.Comp, p1.Comp)
	}
}

func TestMyrinetFasterThanTCP(t *testing.T) {
	sys := testSystem(100, 24, 7)
	tcp := runParallel(t, sys, 4, 2, MiddlewareMPI, netmodel.TCPGigE())
	myri := runParallel(t, sys, 4, 2, MiddlewareMPI, netmodel.MyrinetGM())
	if myri.Wall >= tcp.Wall {
		t.Fatalf("Myrinet run (%g s) not faster than TCP (%g s)", myri.Wall, tcp.Wall)
	}
}

func TestCMPISlowerThanMPIOnTCP(t *testing.T) {
	sys := testSystem(64, 24, 8)
	mpiRes := runParallel(t, sys, 4, 2, MiddlewareMPI, netmodel.TCPGigE())
	cmpiRes := runParallel(t, sys, 4, 2, MiddlewareCMPI, netmodel.TCPGigE())
	if cmpiRes.Wall <= mpiRes.Wall {
		t.Fatalf("CMPI (%g s) not slower than MPI (%g s)", cmpiRes.Wall, mpiRes.Wall)
	}
}

func TestDeterministicRuns(t *testing.T) {
	sys := testSystem(64, 24, 9)
	a := runParallel(t, sys, 4, 2, MiddlewareMPI, netmodel.TCPGigE())
	b := runParallel(t, sys, 4, 2, MiddlewareMPI, netmodel.TCPGigE())
	if a.Wall != b.Wall {
		t.Fatalf("non-deterministic wall time: %g vs %g", a.Wall, b.Wall)
	}
	for rank := range a.Timings {
		for s := range a.Timings[rank] {
			if a.Timings[rank][s] != b.Timings[rank][s] {
				t.Fatalf("rank %d step %d timing differs", rank, s)
			}
		}
	}
}

// TestBlockPartition pins the block offsets every pmd partition (atoms,
// bonded terms, pair blocks, mesh slabs and pencils) takes from
// kernels.Partition: the first n mod p blocks one item larger.
func TestBlockPartition(t *testing.T) {
	cases := []struct {
		n, p int
		want []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 4, 7, 10}},
		{3, 4, []int{0, 1, 2, 3, 3}},
		{0, 2, []int{0, 0, 0}},
		{80, 8, []int{0, 10, 20, 30, 40, 50, 60, 70, 80}},
	}
	for _, c := range cases {
		got := kernels.Partition(c.n, c.p, nil)
		if len(got) != len(c.want) {
			t.Fatalf("kernels.Partition(%d, %d, nil) = %v", c.n, c.p, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("kernels.Partition(%d, %d, nil) = %v, want %v", c.n, c.p, got, c.want)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := testSystem(8, 24, 10)
	cfg := Config{System: sys, MD: testMDConfig(), Steps: 2}
	bad := cfg
	bad.MD.UsePME = false
	if _, err := Run(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), bad); err == nil {
		t.Fatal("non-PME config accepted")
	}
	bad2 := cfg
	bad2.Steps = 0
	if _, err := Run(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), bad2); err == nil {
		t.Fatal("zero steps accepted")
	}
	bad3 := cfg
	bad3.System = nil
	if _, err := Run(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), bad3); err == nil {
		t.Fatal("nil system accepted")
	}
}

func TestDualProcessorRuns(t *testing.T) {
	sys := testSystem(64, 24, 11)
	res, err := Run(clusterCfg(2, 2, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System: sys, MD: testMDConfig(), Steps: 2, Middleware: MiddlewareMPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 4 {
		t.Fatalf("dual 2-node cluster should host 4 ranks, got %d", res.P)
	}
}

func TestTracerCollectsEvents(t *testing.T) {
	sys := testSystem(64, 24, 12)
	col := &trace.Collector{}
	_, err := Run(clusterCfg(2, 1, netmodel.MyrinetGM()), cluster.PentiumIII1GHz(), Config{
		System: sys, MD: testMDConfig(), Steps: 2, Middleware: MiddlewareMPI, Tracer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() == 0 {
		t.Fatal("no events collected")
	}
	// Both ranks computed, communicated, and have phase spans.
	for rank := 0; rank < 2; rank++ {
		if col.Busy(trace.KindCompute)[rank] <= 0 {
			t.Fatalf("rank %d has no compute events", rank)
		}
	}
	if col.Busy(trace.KindPhase)[0] <= 0 {
		t.Fatal("no phase spans recorded")
	}
}

func TestModernCollectivesPreservePhysics(t *testing.T) {
	sys := testSystem(64, 24, 13)
	base := runParallel(t, sys, 4, 3, MiddlewareMPI, netmodel.TCPGigE())
	res, err := Run(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
		System: sys, MD: testMDConfig(), Steps: 3,
		Middleware: MiddlewareMPI, ModernCollectives: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range base.Energies {
		if base.Energies[s].Total() != res.Energies[s].Total() {
			t.Fatalf("step %d: modern collectives changed the physics", s)
		}
	}
	// And they should not be slower on this network.
	if res.Wall > base.Wall*1.05 {
		t.Fatalf("modern collectives slower: %g vs %g", res.Wall, base.Wall)
	}
}
