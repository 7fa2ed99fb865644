package pmd

import (
	"fmt"
	"testing"

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

// fullLengthForces is forceEval as it merged before a rank's merge
// followed its atoms, kept as the oracle: one rank at a time, every
// per-atom pass over all n atoms — each partial cleared and added in
// whole, the pair kernel's fill, clears and merge too — and every rank's
// spread grid added cell by cell.
func fullLengthForces(c *canonical, pos []vec.V, pairs []space.Pair) ([]vec.V, md.EnergyReport, []work.Counters, []work.Counters) {
	n, pmeCfg := c.sys.N(), c.pme
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	frc, partial := make([]vec.V, n), make([]vec.V, n)
	classicWork, recipWork := make([]work.Counters, c.p), make([]work.Counters, c.p)
	nbk := c.ffield.NewNonbondedKernel()
	pme := ewald.NewPME(c.sys.Box, pmeCfg.Beta, k1, k2, k3, pmeCfg.Order)
	plan1d, plan2d := fft.NewPlan(k1), fft.NewPlan2D(k2, k3)
	grid, spread := make([]complex128, k1*k2*k3), make([]float64, k1*k2*k3)
	psi, eC, cC := pme.Influence(), make([]float64, k1), make([]float64, k1)

	var eAll ff.Energies
	pairOff := kernels.Partition(len(pairs), c.p, nil)
	for rk := 0; rk < c.p; rk++ {
		vec.Fill(partial, vec.Zero)
		eAll.Add(c.classic(rk, c.ffield, nbk, pos, pairs[pairOff[rk]:pairOff[rk+1]], nil, partial, &classicWork[rk]))
		addAll(frc, partial)
		clear(spread)
		pme.Spread(pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], spread)
		for i, s := range spread {
			grid[i] += complex(s, 0)
		}
	}
	rep := md.EnergyReport{FF: eAll}
	planeLen := k2 * k3
	for x := 0; x < k1; x++ {
		plan2d.Forward(grid[x*planeLen : (x+1)*planeLen])
	}
	for rk := 0; rk < c.p; rk++ {
		var e float64
		for y := c.yOff[rk]; y < c.yOff[rk+1]; y++ {
			e = spectrumLines(plan1d, psi, eC, cC, grid, y*k3, planeLen, k1, k3, y, e)
		}
		rep.Recip += e
	}
	for x := 0; x < k1; x++ {
		plan2d.Inverse(grid[x*planeLen : (x+1)*planeLen])
	}
	for rk := 0; rk < c.p; rk++ {
		vec.Fill(partial, vec.Zero)
		rep.ExclCorr += recipForces(pme, c.sys, grid, pos, c.charges, c.atomOff[rk], c.atomOff[rk+1], partial, &recipWork[rk])
		addAll(frc, partial)
	}
	rep.Self = ewald.SelfEnergy(c.charges, pmeCfg.Beta)
	rep.Background = ewald.BackgroundEnergy(c.charges, pmeCfg.Beta, c.sys.Box.Volume())
	return frc, rep, classicWork, recipWork
}

// TestRankMergeMatchesFullLength: a rank's merge, its kernel's per-atom
// passes and its lane partial's clearing cover only the atoms its terms
// write, and the initial evaluation's total force, energies and work
// counters are the full-length oracle's bit for bit — from one rank to
// more ranks than atoms have blocks, one and three lanes wide.
func TestRankMergeMatchesFullLength(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	mdc := md.PMEDefaultConfig()
	mdc.Temperature = 300
	for _, workers := range []int{1, 3} {
		tape := NewTape()
		for _, p := range []int{1, 2, 7, 8, 64, 256, 1024} {
			label := fmt.Sprintf("p=%d HostWorkers=%d", p, workers)
			c := openCanonical(t, tape, p, Config{System: sys, MD: mdc, HostWorkers: workers})
			st := c.eval(c.lookup(-1, false))
			frc, rep, classicWork, recipWork := fullLengthForces(c, st.pos, st.pairs)
			mustEqual(t, label+": total force", st.frcTotal, frc)
			mustEqual(t, label+": energies", st.rep, rep)
			mustEqual(t, label+": classic work", st.classicWork, classicWork)
			mustEqual(t, label+": reciprocal work", st.recipWork, recipWork)
		}
	}
}

// addAll adds every element of src to dst.
func addAll(dst, src []vec.V) {
	for i, v := range src {
		dst[i] = dst[i].Add(v)
	}
}

// mustEqual fails unless got and want print the same: %v writes every
// float in its shortest exact form, −0 included, so equal prints are
// equal bits.
func mustEqual(t *testing.T, label string, got, want any) {
	t.Helper()
	if g, w := fmt.Sprintf("%v", got), fmt.Sprintf("%v", want); g != w {
		t.Fatalf("%s differs from the full-length merge", label)
	}
}

// TestLanesReadOneInfluence: the lanes of an evaluation read one ψ table
// at once — the race detector's case — the tape's, built by its first
// evaluation and kept when the scratch goes back to the free list and the
// free list is dropped, and a three-lane evaluation is the one-lane one
// bit for bit.
func TestLanesReadOneInfluence(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	mdc := md.PMEDefaultConfig()
	mdc.Temperature = 300
	var states []*canonState
	for _, workers := range []int{1, 3} {
		c := openCanonical(t, NewTape(), 8, Config{System: sys, MD: mdc, HostWorkers: workers})
		states = append(states, c.eval(c.lookup(-1, false)))
		if c.psi == nil || len(c.t.free) != 1 || len(c.t.free[0].lanes) != workers {
			t.Fatalf("HostWorkers=%d: the free list holds %d scratches, table built %v", workers, len(c.t.free), c.psi != nil)
		}
		psi := c.psi
		c.t.close(false)
		if c.t.free != nil || c.psi != psi {
			t.Fatalf("HostWorkers=%d: the free list outlives the last run, or the table does not", workers)
		}
	}
	mustEqual(t, "total force", states[1].frcTotal, states[0].frcTotal)
	mustEqual(t, "energies", states[1].rep, states[0].rep)
}

// TestWarmSpectrumLinesAllocatesNothing: with the ψ table and a lane's
// line scratch in hand, a row of the spectrum allocates nothing.
func TestWarmSpectrumLinesAllocatesNothing(t *testing.T) {
	pc := md.PMEDefaultConfig().PME
	k1, k2, k3 := pc.K1, pc.K2, pc.K3
	pme := ewald.NewPME(space.NewBox(40, 30, 35), pc.Beta, k1, k2, k3, pc.Order)
	psi, eC, cC := pme.Influence(), make([]float64, k1), make([]float64, k1)
	plan := fft.NewPlan(k1)
	grid := make([]complex128, k1*k2*k3)
	for i := range grid {
		grid[i] = complex(float64(i%7)-3, 0)
	}
	const y = 5
	row := func() { spectrumLines(plan, psi, eC, cC, grid, y*k3, k2*k3, k1, k3, y, 0) }
	row()
	if allocs := testing.AllocsPerRun(5, row); allocs != 0 {
		t.Fatalf("a warm spectrumLines allocates %v times", allocs)
	}
}
