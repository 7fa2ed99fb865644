package pmd

import (
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

// classicParts is the replicated block partition of the bonded terms and
// the 1-4 pairs over the ranks. It and the functions below are the per-rank
// arithmetic the partitioned worker (computeForces) and the domain path's
// canonical evaluator (forceEval) both call, so the two cannot drift apart.
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

// classic evaluates rank rk's classic forces into out (zeroed first) and
// returns its energies; pairs is the rank's block of the pair list.
func (cp *classicParts) classic(rk int, f *ff.ForceField, nbk *ff.NonbondedKernel,
	pos []vec.V, pairs []space.Pair, out []vec.V, wc *work.Counters) ff.Energies {
	var e ff.Energies
	vec.Fill(out, vec.Zero)
	e.Bond = f.BondsRange(pos, out, wc, cp.bondOff[rk], cp.bondOff[rk+1])
	e.Angle = f.AnglesRange(pos, out, wc, cp.angOff[rk], cp.angOff[rk+1])
	e.Dihedral = f.DihedralsRange(pos, out, wc, cp.dihOff[rk], cp.dihOff[rk+1])
	e.Improper = f.ImpropersRange(pos, out, wc, cp.imprOff[rk], cp.imprOff[rk+1])
	e.Add(nbk.Compute(pos, pairs, out, wc))
	e.Add(f.Pairs14Range(pos, out, wc, cp.p14Off[rk], cp.p14Off[rk+1]))
	return e
}

// spectrumLines runs the reciprocal sum over the k3 x-lines of mesh row
// m2, which start at buf[base] and step by stride along x: forward 1-D
// FFTs, the influence multiply, inverse FFTs. The lines' energy is added
// to eRecip term by term, z-outer and m1-inner, and the sum returned.
func spectrumLines(plan *fft.Plan, pme *ewald.PME, buf []complex128, base, stride, k1, k3, m2 int, eRecip float64) float64 {
	plan.ForwardLines(buf, base, stride, k3)
	for z := 0; z < k3; z++ {
		for m1 := 0; m1 < k1; m1++ {
			eC, cC := pme.Psi(m1, m2, z)
			i := base + m1*stride + z
			v := buf[i]
			eRecip += eC * (real(v)*real(v) + imag(v)*imag(v))
			buf[i] = v * complex(cC, 0)
		}
	}
	plan.InverseLines(buf, base, stride, k3)
	return eRecip
}

// recipForces interpolates the PME forces of atoms [lo, hi) from the
// convolved potential mesh into out (zeroed first), adds the excluded-pair
// correction of the same exclusion rows and returns its energy.
func recipForces(pme *ewald.PME, sys *topol.System, conv []complex128, pos []vec.V,
	charges []float64, lo, hi int, out []vec.V, wc *work.Counters) float64 {
	vec.Fill(out, vec.Zero)
	pme.Interpolate(conv, pos, charges, lo, hi, out)
	return ewald.ExclusionCorrectionRange(sys.Box, pos, charges, sys.Excl, pme.Beta, lo, hi, out, wc)
}

// computeForces evaluates the classic and PME phases, producing the new
// total forces and the step energies. When st is non-nil, it closes the
// classic phase sample using tr (opened by the caller at phase start) and
// fills the PME sample for the distributed reciprocal computation.
//
// The physics is split into six compute segments (one per cost charge of
// the original straight-line version, so the event sequence is unchanged),
// each declaring an exact-where-possible work lower bound so the host-
// parallel scheduler can overlap segments of different ranks. Everything
// between segments — publishing shared slots, force combines — is
// zero-cost bookkeeping and stays inline on the scheduler thread. The PME
// segments read and write the shared mesh under the ordering rule the
// shared type states.
func (w *worker) computeForces(st *StepTiming, tr phaseTracker) md.EnergyReport {
	sys := w.cfg.System
	n := sys.N()
	me := w.me()
	aLo, aHi := w.myAtoms()
	pmeCfg := w.cfg.MD.PME
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	planeLen := k2 * k3
	myYW := w.myYW()
	o3 := int64(pmeCfg.Order * pmeCfg.Order * pmeCfg.Order)
	var rep md.EnergyReport
	var charges []float64
	if w.replay == nil {
		charges = w.ff.Charges()
	}
	w.eval++

	// ---------------- Classic phase (continued) -------------------------

	// Exact bound for everything unconditionally evaluated over this
	// rank's partitions. The neighbour-list rebuild and the nonbonded
	// exclusion checks only add work on top; the current pair-list range
	// is part of the bound only when the list provably survives this step
	// (a rebuild repartitions the pair list, so the old range is no bound).
	var minC work.Counters
	if w.replay == nil {
		minC = work.Counters{
			BondTerms:     int64(w.bondOff[me+1] - w.bondOff[me]),
			AngleTerms:    int64(w.angOff[me+1] - w.angOff[me]),
			DihedralTerms: int64(w.dihOff[me+1]-w.dihOff[me]) + int64(w.imprOff[me+1]-w.imprOff[me]),
			PairEvals:     int64(w.p14Off[me+1] - w.p14Off[me]),
		}
		// The skin check runs here on the scheduler thread as well as in
		// the segment: it reads only this rank's replica, which no compute
		// closure touches between the drift segment and this one, and every
		// rank holds an identical replica, so all reach the same decision.
		if w.integ.ListValid(w.pos, w.listOrigin) {
			minC.PairEvals += int64(w.pairOff[me+1] - w.pairOff[me])
		}
	}

	var e ff.Energies
	w.seg(minC, func(wc *work.Counters) {
		// Neighbour-list management: all replicas are identical, so the
		// build is shared across ranks (constructed once per generation)
		// while each rank still charges its 1/p share of the distributed
		// search work, exactly like CHARMM's parallel list builder.
		if !w.integ.ListValid(w.pos, w.listOrigin) {
			w.listGen++
			pairs, distEvals := w.sh.sharedList(w.listGen, w.ff, w.pos)
			w.pairs = pairs
			wc.ListDistEvals += distEvals / int64(w.p)
			w.listOrigin = append(w.listOrigin[:0], w.pos...)
			w.pairOff = kernels.Partition(len(w.pairs), w.p, nil)
		}

		// Partial classic forces and energies over this rank's partitions.
		e = w.classic(me, w.ff, w.nbk, w.pos, w.pairs[w.pairOff[me]:w.pairOff[me+1]], w.partial, wc)
	})

	w.inline(func() { w.sh.energy[me].FF = e })

	// Global force combine (the classic "all-to-all collective"), followed
	// by the separate energy/virial-array sum CHARMM performs per step.
	reduceOp := float64(3*n) * 1e-9 // one add per force component, ~1 ns each
	w.c.Allreduce(bytesPerCoord*n, reduceOp)
	w.c.Allreduce(2048, 0)
	w.inline(func() {
		sh := w.sh
		if sh.classicEval != w.eval {
			vec.Fill(sh.frcSum, vec.Zero)
			for rk := 0; rk < w.p; rk++ {
				vec.AddTo(sh.frcSum, sh.partials[rk])
			}
			sh.classicEval = w.eval
		}
		copy(w.frcTotal, sh.frcSum)
		var eAll ff.Energies
		for rk := 0; rk < w.p; rk++ {
			eAll.Add(sh.energy[rk].FF)
		}
		rep.FF = eAll
	})

	if st != nil {
		st.Classic = tr.sample()
	}

	// ---------------- PME phase -----------------------------------------
	trP := w.beginPhase()
	nOwn := int64(aHi - aLo)

	// Spread own atoms onto the full local accumulation grid.
	w.seg(work.Counters{GridCharges: nOwn * o3}, func(wp *work.Counters) {
		clear(w.localGrid)
		w.pme.Spread(w.pos, charges, aLo, aHi, w.localGrid)
		wp.GridCharges += nOwn * o3
	})

	// Grid assembly: personalized all-to-all, then sum every rank's grid,
	// rank-ascending, into the owned x-planes of the shared mesh, and
	// forward 2-D FFTs over those planes in place. Both counts are exact,
	// so the bound is exact.
	w.c.Alltoallv(w.sizesGrid)
	xLo, xHi := w.xOff[me]*planeLen, w.xOff[me+1]*planeLen
	var minP2 work.Counters
	if w.replay == nil {
		minP2 = work.Counters{
			RecipPoints: int64(w.p-1) * int64(xHi-xLo),
			FFTOps:      int64(w.myXW()) * w.plan2d.Ops(),
		}
	}
	w.seg(minP2, func(wp *work.Counters) {
		planes := w.sh.mesh[xLo:xHi]
		clear(planes)
		for rk := 0; rk < w.p; rk++ {
			for i, q := range w.sh.grids[rk][xLo:xHi] {
				planes[i] += complex(q, 0)
			}
		}
		wp.RecipPoints += int64(w.p-1) * int64(len(planes))
		for x := 0; x < len(planes); x += planeLen {
			w.plan2d.Forward(planes[x : x+planeLen])
		}
		wp.FFTOps += int64(w.myXW()) * w.plan2d.Ops()
	})

	// Forward transpose: the model ships (myX × yW(dst) × K3) blocks and
	// prices their unpacking; the spectrum segment reads them in the mesh.
	w.c.Alltoallv(w.sizesTF)

	// 1-D FFTs along x, influence multiply on the owned spectrum lines,
	// inverse 1-D FFTs.
	var minP3 work.Counters
	if w.replay == nil {
		minP3 = work.Counters{
			Other:       int64(k1 * myYW * k3),
			FFTOps:      2 * int64(myYW*k3) * w.plan1d.Ops(),
			RecipPoints: int64(k1 * myYW * k3),
		}
	}
	var eRecip float64
	w.seg(minP3, func(wp *work.Counters) {
		wp.Other += int64(k1 * myYW * k3)
		// The x lines of one y are k3 adjacent lines of stride planeLen.
		for y := w.yOff[me]; y < w.yOff[me+1]; y++ {
			eRecip = spectrumLines(w.plan1d, w.pme, w.sh.mesh, y*k3, planeLen, k1, k3, y, eRecip)
		}
		wp.FFTOps += 2 * int64(myYW*k3) * w.plan1d.Ops()
		wp.RecipPoints += int64(k1 * myYW * k3)
	})

	// Backward transpose: the model returns (xW(dst) × myY × K3) blocks;
	// inverse 2-D FFTs complete the convolution on the owned planes.
	w.c.Alltoallv(w.sizesTB)
	var minP4 work.Counters
	if w.replay == nil {
		minP4 = work.Counters{
			Other:  int64(w.myXW() * k2 * k3),
			FFTOps: int64(w.myXW()) * w.plan2d.Ops(),
		}
	}
	w.seg(minP4, func(wp *work.Counters) {
		wp.Other += int64(w.myXW() * k2 * k3)
		planes := w.sh.mesh[xLo:xHi]
		for x := 0; x < len(planes); x += planeLen {
			w.plan2d.Inverse(planes[x : x+planeLen])
		}
		wp.FFTOps += int64(w.myXW()) * w.plan2d.Ops()
	})

	// Gather the convolved potential so every rank can interpolate the
	// forces of its own atoms.
	w.c.Allgatherv(w.blocksConv)

	// Interpolate PME forces for the owned atoms from the assembled mesh
	// and add the excluded-pair correction for the owned exclusion rows
	// (the correction's pair evaluations only add on top of the exact
	// assembly + interpolation bound).
	var minP5 work.Counters
	if w.replay == nil {
		minP5 = work.Counters{
			Other:       int64(k1 * planeLen),
			GridCharges: nOwn * o3,
		}
	}
	var eExcl float64
	w.seg(minP5, func(wp *work.Counters) {
		wp.Other += int64(k1 * planeLen)
		wp.GridCharges += nOwn * o3
		eExcl = recipForces(w.pme, sys, w.sh.mesh, w.pos, charges, aLo, aHi, w.partial, wp)
	})

	w.inline(func() {
		w.sh.energy[me].Recip = eRecip
		w.sh.energy[me].ExclCorr = eExcl
	})

	// Combine PME forces and energies.
	w.c.Allreduce(bytesPerCoord*n+64, reduceOp)
	w.inline(func() {
		sh := w.sh
		if sh.totalEval != w.eval {
			for rk := 0; rk < w.p; rk++ {
				vec.AddTo(sh.frcSum, sh.partials[rk])
			}
			sh.totalEval = w.eval
		}
		copy(w.frcTotal, sh.frcSum)
		for rk := 0; rk < w.p; rk++ {
			rep.Recip += sh.energy[rk].Recip
			rep.ExclCorr += sh.energy[rk].ExclCorr
		}
		rep.Self = ewald.SelfEnergy(charges, w.pme.Beta)
		rep.Background = ewald.BackgroundEnergy(charges, w.pme.Beta, sys.Box.Volume())
	})

	if st != nil {
		st.PME = trP.sample()
	}
	return rep
}
