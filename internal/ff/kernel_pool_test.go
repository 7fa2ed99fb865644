package ff

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// longList repeats pairs until the list holds at least n of them: a list
// long enough for several shards over a system small enough for tests.
func longList(pairs []space.Pair, n int) []space.Pair {
	out := make([]space.Pair, 0, n+len(pairs))
	for len(out) < n {
		out = append(out, pairs...)
	}
	return out
}

// The shard count is a pure function of the list length: one shard per
// pairsPerShard pairs, at least one, at most kernels.ShardCount.
func TestPairShards(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {pairsPerShard, 1}, {pairsPerShard + 1, 2},
		{574000 / 8, 3}, // a p = 8 rank's slice of the paper list
		{574000, kernels.ShardCount},
	} {
		if got := pairShards(c.n); got != c.want {
			t.Errorf("pairShards(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// The pair loop must be byte-identical at every worker count: the shard
// decomposition is fixed by the pair count, and the per-shard forces and
// energies merge in ascending shard order — including at one worker,
// where the blocks run inline and fold into two sets of force arrays.
func TestKernelPooledBitwiseStableAcrossWorkers(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, PMEOptions())
	pairs := longList(f.BuildPairs(pos, nil), 3*pairsPerShard+1)

	run := func(workers int) (Energies, []vec.V, work.Counters) {
		k := f.NewNonbondedKernel()
		k.SetPool(kernels.NewPool(workers))
		frc := make([]vec.V, len(pos))
		var w work.Counters
		e := k.Compute(pos, pairs, frc, &w)
		return e, frc, w
	}
	wantE, wantF, wantW := run(1)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0) + 1, kernels.ShardCount + 2} {
		e, frc, w := run(workers)
		if e != wantE {
			t.Fatalf("workers=%d: energies %+v != 1-worker %+v", workers, e, wantE)
		}
		if w != wantW {
			t.Fatalf("workers=%d: counters %+v != %+v", workers, w, wantW)
		}
		for i := range frc {
			if frc[i] != wantF[i] {
				t.Fatalf("workers=%d: frc[%d] = %v != %v", workers, i, frc[i], wantF[i])
			}
		}
	}
}

// A list of at most pairsPerShard pairs is one shard, and one shard is the
// plain serial loop bit for bit: pairRange into zeroed arrays, then every
// nonzero force added to frc.
func TestOneShardIsTheSerialLoop(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, PMEOptions())
	pairs := f.BuildPairs(pos, nil)
	if pairShards(len(pairs)) != 1 {
		t.Fatalf("%d pairs are more than one shard", len(pairs))
	}
	n := len(pos)
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	fx, fy, fz := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, p := range pos {
		x[i], y[i], z[i] = p.X, p.Y, p.Z
	}
	eLJ, eElec := f.pairRange(x, y, z, pairs, fx, fy, fz)
	want := make([]vec.V, n)
	for i := range want {
		want[i] = vec.New(1, -2, 0.5) // forces the caller already holds
		if fx[i] != 0 || fy[i] != 0 || fz[i] != 0 {
			want[i] = want[i].Add(vec.New(fx[i], fy[i], fz[i]))
		}
	}

	got := make([]vec.V, n)
	for i := range got {
		got[i] = vec.New(1, -2, 0.5)
	}
	e := f.NewNonbondedKernel().Compute(pos, pairs, got, nil)
	if e.LJ != eLJ || e.Elec != eElec {
		t.Fatalf("energies LJ %x Elec %x, serial loop %x %x", e.LJ, e.Elec, eLJ, eElec)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("frc[%d] = %v, serial loop %v", i, got[i], want[i])
		}
	}
}

// A sharded list is a regrouping of the same sums as the serial loop over
// its one-shard pieces, and agrees with it to roundoff.
func TestKernelPooledMatchesSerialToRoundoff(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, PMEOptions())
	pairs := longList(f.BuildPairs(pos, nil), 3*pairsPerShard+1)

	frcS := make([]vec.V, len(pos))
	var eS Energies
	serial := f.NewNonbondedKernel()
	for lo := 0; lo < len(pairs); lo += pairsPerShard {
		eS.Add(serial.Compute(pos, pairs[lo:min(lo+pairsPerShard, len(pairs))], frcS, nil))
	}

	pooled := f.NewNonbondedKernel()
	pooled.SetPool(kernels.NewPool(4))
	frcP := make([]vec.V, len(pos))
	eP := pooled.Compute(pos, pairs, frcP, nil)

	scale := math.Abs(eS.LJ) + math.Abs(eS.Elec) + 1
	if math.Abs(eP.LJ-eS.LJ) > 1e-9*scale || math.Abs(eP.Elec-eS.Elec) > 1e-9*scale {
		t.Fatalf("pooled %+v vs serial %+v", eP, eS)
	}
	for i := range frcS {
		if frcP[i].Sub(frcS[i]).Norm() > 1e-9*(1+frcS[i].Norm()) {
			t.Fatalf("atom %d: pooled %v vs serial %v", i, frcP[i], frcS[i])
		}
	}
}

// With ExactKernels the kernel delegates to the reference loop; a pool
// must not change a bit of it.
func TestKernelPoolIgnoredInExactMode(t *testing.T) {
	sys, pos := smallSystem(4)
	o := PMEOptions()
	o.ExactKernels = true
	f := New(sys, o)
	pairs := f.BuildPairs(pos, nil)

	frcRef := make([]vec.V, len(pos))
	eRef := f.Nonbonded(pos, pairs, frcRef, nil)

	k := f.NewNonbondedKernel()
	k.SetPool(kernels.NewPool(4))
	frc := make([]vec.V, len(pos))
	e := k.Compute(pos, pairs, frc, nil)
	if e != eRef {
		t.Fatalf("exact-mode pooled energies %+v != reference %+v", e, eRef)
	}
	for i := range frc {
		if frc[i] != frcRef[i] {
			t.Fatalf("exact-mode pooled frc[%d] differs", i)
		}
	}
}

// Steady-state Compute must not allocate (scratch is sized on the first
// call and reused).
func TestKernelPooledDoesNotAllocateSteadyState(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, PMEOptions())
	pairs := longList(f.BuildPairs(pos, nil), 3*pairsPerShard+1)
	k := f.NewNonbondedKernel()
	k.SetPool(kernels.NewPool(1))
	frc := make([]vec.V, len(pos))
	k.Compute(pos, pairs, frc, nil)
	allocs := testing.AllocsPerRun(10, func() {
		k.Compute(pos, pairs, frc, nil)
	})
	if allocs > 0 {
		t.Fatalf("pooled Compute allocates %v per call in steady state", allocs)
	}
}
