package pmd

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/topol"
	"repro/internal/vec"
	"repro/internal/work"
)

// mustMatchEngine fails unless res's step energies and final positions
// are the sequential engine's (want, pos) bit for bit.
func mustMatchEngine(t *testing.T, label string, res *Result, want []md.EnergyReport, pos []vec.V) {
	t.Helper()
	if !reflect.DeepEqual(res.Energies, want) {
		t.Fatalf("%s: energies differ from md.Engine.Run's", label)
	}
	if !reflect.DeepEqual(res.FinalPos, pos) {
		t.Fatalf("%s: final positions differ from md.Engine.Run's", label)
	}
}

// TestRunMatchesSequentialEngine: every run's trajectory is md.Engine's.
// Replicated and domain runs at p = 1, 3, 8 and 64, at one and four host
// workers, give md.Engine.Run's energies and final positions bit for bit,
// over three steps that cross a list rebuild; the mesh is 64 planes deep
// so the slab PME tiles 64 ranks.
func TestRunMatchesSequentialEngine(t *testing.T) {
	sys := testSystem(100, 24, 1)
	mdc := tapeMD()
	mdc.PME.K1 = 64
	const steps = 3
	seq := md.NewEngine(sys, mdc)
	want := seq.Run(steps, nil, nil)
	for _, decomp := range []DecompKind{DecompReplicated, DecompDomain} {
		for _, p := range []int{1, 3, 8, 64} {
			for _, workers := range []int{1, 4} {
				res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
					System: sys, MD: mdc, Steps: steps, Decomp: decomp, HostWorkers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				mustMatchEngine(t, fmt.Sprintf("%v p=%d workers=%d", decomp, p, workers), res, want, seq.Pos)
			}
		}
	}
}

// TestRanksCountTheirPartitions: a replicated rank's counters come from
// its partitions, not from an evaluation of its own. For p = 1, 2, 3, 7,
// 8, 64 and 256 over the protein, the classic counters summed over the
// ranks — their blocks of the bonded terms, the 1-4 pairs and the pair
// list — are one md.Engine.ComputeForces's classic counters less the list
// search, and the reciprocal ones — the excluded pairs of their atom rows —
// are its exclusion-correction pairs (the mesh work, which the slab
// pipeline charges from its own layout, aside).
func TestRanksCountTheirPartitions(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	e := md.NewEngine(sys, md.PMEDefaultConfig())
	var classic, recip work.Counters
	e.ComputeForces(&classic, &recip)
	classic.ListDistEvals = 0
	wantRecip := work.Counters{PairEvals: recip.PairEvals}
	pairs := e.PairCount()
	if classic.DihedralTerms == 0 || wantRecip.PairEvals == 0 || pairs == 0 {
		t.Fatalf("the protein counts %+v and %d pairs; want every kind of term", classic, pairs)
	}
	for _, p := range []int{1, 2, 3, 7, 8, 64, 256} {
		cw, rw := partitionWork(sys, kernels.Partition(sys.N(), p, nil))
		var gotClassic, gotRecip work.Counters
		for rk := 0; rk < p; rk++ {
			c := cw[rk]
			gotClassic.BondTerms += c.BondTerms
			gotClassic.AngleTerms += c.AngleTerms
			gotClassic.DihedralTerms += c.DihedralTerms
			gotClassic.PairEvals += c.PairEvals + int64(blockLen(pairs, p, rk))
			gotRecip.PairEvals += rw[rk].PairEvals
		}
		if cw[p-1].GridCharges != 0 || rw[p-1] != (work.Counters{PairEvals: rw[p-1].PairEvals}) {
			t.Fatalf("p=%d: a rank's partitions count %+v and %+v", p, cw[p-1], rw[p-1])
		}
		if gotClassic != classic || gotRecip != wantRecip {
			t.Errorf("p=%d: the ranks count %+v and %+v, the engine %+v and %+v", p, gotClassic, gotRecip, classic, wantRecip)
		}
	}
}

// TestTapeBytesBoundsItsHeap: Tape.Bytes bounds what a tape keeps alive.
// A tape that recorded five replicated steps of the protein at two ranks,
// its lists taken over from the engine and counted at their capacity and
// its engine dropped with the last run, retains at most its Bytes plus a
// slack of 2 % and 64 KiB (the map, channels and once values of its
// states, and heap-size rounding) once the run's result is gone; and at
// least half its Bytes, so the measurement sees the tape at all. The
// force field's and PME's tables belong to the process, shared by every
// engine of the workload, so an engine built first takes them out of the
// measurement whatever ran before.
func TestTapeBytesBoundsItsHeap(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	mdc := md.PMEDefaultConfig()
	md.NewEngine(sys, mdc).ComputeForces(nil, nil)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	tape := NewTape()
	if _, err := Run(clusterCfg(2, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(),
		Config{System: sys, MD: mdc, Steps: 5, Tape: tape}); err != nil {
		t.Fatal(err)
	}
	retained := heap() - before
	b := tape.Bytes()
	runtime.KeepAlive(tape)
	t.Logf("the tape retains %d bytes of heap and counts %d", retained, b)
	if slack := b/50 + 64<<10; retained > b+slack || retained < b/2 {
		t.Fatalf("the tape retains %d bytes of heap and counts %d; want at most %d more and at least half", retained, b, slack)
	}
}
