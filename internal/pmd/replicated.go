package pmd

import (
	"repro/internal/md"
	"repro/internal/topol"
	"repro/internal/work"
)

// partitionWork returns, per rank of the atom blocks atomOff, the work of
// its fixed partitions that the replicated arithmetic counts: its blocks
// of the bonded terms and the 1-4 pairs (classic), and the excluded pairs
// (j > i) of its atom rows, whose reciprocal correction it computes
// (recip). A rank's block of the pair list changes with the list; forces
// adds it.
func partitionWork(sys *topol.System, atomOff []int) (classic, recip []work.Counters) {
	p := len(atomOff) - 1
	classic, recip = make([]work.Counters, p), make([]work.Counters, p)
	for rk := range classic {
		block := func(n int) int64 { return int64(blockLen(n, p, rk)) }
		classic[rk] = work.Counters{
			BondTerms:     block(len(sys.Bonds)),
			AngleTerms:    block(len(sys.Angles)),
			DihedralTerms: block(len(sys.Dihedrals)) + block(len(sys.Impropers)),
			PairEvals:     block(len(sys.Pairs14)),
		}
		for i := atomOff[rk]; i < atomOff[rk+1]; i++ {
			for _, j := range sys.Excl.Of(i) {
				if int(j) > i {
					recip[rk].PairEvals++
				}
			}
		}
	}
	return classic, recip
}

// blockLen is the length of block rk of kernels.Partition(n, p).
func blockLen(n, p, rk int) int {
	if rk < n%p {
		return n/p + 1
	}
	return n / p
}

// sizeTables are the replicated path's collective size tables, fixed by
// the partitions and computed once per run. They are what the model
// ships; the host moves none of these bytes, because the ranks read every
// number from the tape's states.
type sizeTables struct {
	blocks     []int   // position all-gather
	blocksConv []int   // convolved-potential all-gather
	sizesGrid  [][]int // grid-assembly all-to-all
	sizesTF    [][]int // forward transpose
	sizesTB    [][]int // backward transpose
}

// newSizeTables builds the tables of p = len(atomOff)−1 ranks owning the
// atom blocks of atomOff, the mesh x-planes of xOff and the spectrum
// y-lines of yOff, on a mesh of k2·k3-point planes.
func newSizeTables(atomOff, xOff, yOff []int, k2, k3 int) sizeTables {
	p := len(atomOff) - 1
	planeLen := k2 * k3
	t := sizeTables{
		blocks:     make([]int, p),
		blocksConv: make([]int, p),
		sizesGrid:  make([][]int, p),
		sizesTF:    make([][]int, p),
		sizesTB:    make([][]int, p),
	}
	for i := 0; i < p; i++ {
		t.blocks[i] = bytesPerCoord * (atomOff[i+1] - atomOff[i])
		t.blocksConv[i] = bytesPerRealPoint * (xOff[i+1] - xOff[i]) * planeLen
		t.sizesGrid[i] = make([]int, p)
		t.sizesTF[i] = make([]int, p)
		t.sizesTB[i] = make([]int, p)
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			t.sizesGrid[i][j] = bytesPerRealPoint * (xOff[j+1] - xOff[j]) * planeLen
			t.sizesTF[i][j] = bytesPerPoint * (xOff[i+1] - xOff[i]) * (yOff[j+1] - yOff[j]) * k3
			t.sizesTB[i][j] = bytesPerPoint * (xOff[j+1] - xOff[j]) * (yOff[i+1] - yOff[i]) * k3
		}
	}
	return t
}

// replicatedDecomp is the paper's replicated-data decomposition: every
// rank holds a full replica, positions propagate with an all-gather, the
// classic terms are block-partitioned and PME runs slab-decomposed. The
// rank charges that pipeline from counts its partitions and plans fix and,
// for its block of the pair list, the length of the state's list.
type replicatedDecomp struct{}

func (d replicatedDecomp) initialForces(w *worker) {
	// The lookup runs inline: the replicated schedule has no segment
	// before the first classic one, and a zero-cost segment would add an
	// event to it.
	w.cur = w.sh.tape.list(-1)
	d.forces(w, nil, phaseTracker{})
}

func (replicatedDecomp) drift(w *worker, step int) {
	aLo, aHi := w.myAtoms()
	nOwn := int64(aHi - aLo)
	// Half-kick + drift of the owned atom block, then the all-gather that
	// refreshes every replica.
	w.cur = w.sh.tape.list(step)
	w.r.ComputeWork(work.Counters{Integrate: nOwn})
	w.c.Allgatherv(w.sh.blocks)
}

func (replicatedDecomp) kick(w *worker) {
	aLo, aHi := w.myAtoms()
	w.r.ComputeWork(work.Counters{Integrate: int64(aHi - aLo)})
	w.c.Barrier()
}

// forces charges the classic + slab-PME pipeline of one evaluation. When
// st is non-nil it closes the classic sample with tr and fills the PME
// sample.
func (replicatedDecomp) forces(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport {
	cs := w.cur
	sh := w.sh
	n := w.cfg.System.N()
	me := w.me()
	aLo, aHi := w.myAtoms()
	nOwn := int64(aHi - aLo)
	pmeCfg := w.cfg.MD.PME
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	planeLen := k2 * k3
	xW := int64(sh.xOff[me+1] - sh.xOff[me])
	yW := int64(sh.yOff[me+1] - sh.yOff[me])
	o3 := int64(pmeCfg.Order * pmeCfg.Order * pmeCfg.Order)

	// Partial classic forces and energies over the rank's partitions. On a
	// rebuild step the list is built once and every rank charges its 1/p
	// share of the distributed search, like CHARMM's parallel list builder.
	wc := sh.classicWork[me]
	wc.PairEvals += int64(blockLen(len(cs.pairs), w.p, me))
	if cs.rebuilt {
		wc.ListDistEvals += cs.distEvals / int64(w.p)
	}
	w.r.ComputeWork(wc)

	// Global force combine (the classic "all-to-all collective"), followed
	// by the separate energy/virial-array sum CHARMM performs per step.
	reduceOp := float64(3*n) * 1e-9 // one add per force component, ~1 ns each
	w.c.Allreduce(bytesPerCoord*n, reduceOp)
	w.c.Allreduce(2048, 0)
	if st != nil {
		st.Classic = tr.sample()
	}

	// ---------------- PME phase -----------------------------------------
	trP := w.beginPhase()
	// Spread own atoms onto a full local accumulation grid.
	w.r.ComputeWork(work.Counters{GridCharges: nOwn * o3})
	// Grid assembly: personalized all-to-all, then the sum of every rank's
	// grid into the owned x-planes and their forward 2-D FFTs.
	w.c.Alltoallv(sh.sizesGrid)
	w.r.ComputeWork(work.Counters{
		RecipPoints: int64(w.p-1) * xW * int64(planeLen),
		FFTOps:      xW * sh.ops2d,
	})
	// Forward transpose: (myX × yW(dst) × K3) blocks.
	w.c.Alltoallv(sh.sizesTF)
	// 1-D FFTs along x, influence multiply on the owned spectrum lines,
	// inverse 1-D FFTs.
	w.r.ComputeWork(work.Counters{
		Other:       int64(k1) * yW * int64(k3),
		FFTOps:      2 * yW * int64(k3) * sh.ops1d,
		RecipPoints: int64(k1) * yW * int64(k3),
	})
	// Backward transpose: (xW(dst) × myY × K3) blocks; inverse 2-D FFTs
	// complete the convolution on the owned planes.
	w.c.Alltoallv(sh.sizesTB)
	w.r.ComputeWork(work.Counters{
		Other:  xW * int64(planeLen),
		FFTOps: xW * sh.ops2d,
	})
	// Gather the convolved potential so every rank can interpolate the
	// forces of its own atoms.
	w.c.Allgatherv(sh.blocksConv)
	// Interpolate PME forces for the owned atoms from the assembled mesh
	// and add the excluded-pair correction for the owned exclusion rows.
	wp := sh.recipWork[me]
	wp.Other += int64(k1 * planeLen)
	wp.GridCharges += nOwn * o3
	w.r.ComputeWork(wp)
	// Combine PME forces and energies.
	w.c.Allreduce(bytesPerCoord*n+64, reduceOp)
	if st != nil {
		st.PME = trP.sample()
	}
	return cs.energies()
}
