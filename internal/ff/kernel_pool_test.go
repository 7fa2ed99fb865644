package ff

import (
	"math"
	"runtime"
	"slices"
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
// decomposition is fixed by the pair count, and the blocks' forces fold
// and their energies sum in ascending block order at every width.
func TestKernelPooledBitwiseStableAcrossWorkers(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, DefaultOptions(), testBeta)
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
	f := New(sys, DefaultOptions(), testBeta)
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
	f := New(sys, DefaultOptions(), testBeta)
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

// A kernel holds one force set for a one-block list at any width, two
// for a longer list at one worker, and at most 2W at W workers: the fold
// reuses a spare set once its block is summed. On a 16-block list every
// width below 8 reuses spare sets, and the forces keep the 1-worker bits.
func TestKernelForceSets(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, DefaultOptions(), testBeta)
	short := f.BuildPairs(pos, nil)
	long := longList(short, 15*pairsPerShard+1)
	if pairShards(len(short)) != 1 || pairShards(len(long)) != kernels.ShardCount {
		t.Fatalf("lists of %d and %d pairs are not one and %d blocks", len(short), len(long), kernels.ShardCount)
	}
	compute := func(workers int, pairs []space.Pair) (*NonbondedKernel, []vec.V) {
		k := f.NewNonbondedKernel()
		k.SetPool(kernels.NewPool(workers))
		frc := make([]vec.V, len(pos))
		k.Compute(pos, pairs, frc, nil)
		return k, frc
	}
	_, want1 := compute(1, long)
	for _, workers := range []int{0, 1, 2, 3, 4, kernels.ShardCount + 2} {
		for _, pairs := range [][]space.Pair{short, long} {
			k, frc := compute(workers, pairs)
			want := min(2*max(workers, 1), kernels.ShardCount)
			if pairShards(len(pairs)) == 1 {
				want = 1
			}
			if len(k.acc) != want {
				t.Errorf("workers=%d, %d blocks: %d force sets, want %d",
					workers, pairShards(len(pairs)), len(k.acc), want)
			}
			if len(pairs) == len(long) && !slices.Equal(frc, want1) {
				t.Errorf("workers=%d: forces differ from the 1-worker fold", workers)
			}
		}
	}
}

// Steady-state Compute must not allocate (scratch is sized on the first
// call and reused); a pooled Compute allocates no more than its three bare
// pool.Run calls do.
func TestKernelPooledDoesNotAllocateSteadyState(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, DefaultOptions(), testBeta)
	pairs := longList(f.BuildPairs(pos, nil), 3*pairsPerShard+1)
	nop := func(int) {}
	for _, workers := range []int{1, 2, 4} {
		pool := kernels.NewPool(workers)
		k := f.NewNonbondedKernel()
		k.SetPool(pool)
		frc := make([]vec.V, len(pos))
		k.Compute(pos, pairs, frc, nil)
		bare := testing.AllocsPerRun(10, func() {
			for range 3 {
				pool.Run(pairShards(len(pairs)), nop)
			}
		})
		allocs := testing.AllocsPerRun(10, func() {
			k.Compute(pos, pairs, frc, nil)
		})
		if allocs > bare {
			t.Fatalf("workers=%d: Compute allocates %v per call in steady state, its three bare pool.Run calls %v",
				workers, allocs, bare)
		}
	}
}
