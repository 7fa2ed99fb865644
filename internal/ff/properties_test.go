package ff

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kernels"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
)

// oldFilter is the predicate filterPairs applied per raw pair before the
// merged skip list: a binary search of I's exclusion row, then a map probe
// for the 1-4 pair. It lives on here as the reference only.
func oldFilter(sys *topol.System, raw []space.Pair) []space.Pair {
	is14 := make(map[[2]int32]bool, len(sys.Pairs14))
	for _, p := range sys.Pairs14 {
		is14[p] = true
	}
	var out []space.Pair
	for _, p := range raw {
		if sys.Excl.Excluded(p.I, p.J) || is14[[2]int32{p.I, p.J}] {
			continue
		}
		out = append(out, p)
	}
	return out
}

// The skip-list filter keeps exactly the pairs the old predicate kept, in
// order, on random topologies: atoms without exclusions or 1-4 partners,
// 1-4 partners that are also exclusions or listed twice, 1-4 pairs stored
// high-atom-first (which the old map never matched against an I<J pair),
// and exclusion rows that are not symmetric.
func TestFilterMatchesOldPredicate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		sys := &topol.System{Box: space.NewBox(30, 30, 30), Types: topol.StandardTypes()}
		sys.Atoms = make([]topol.Atom, n)
		sys.Pos = make([]vec.V, n)
		sets := make([][]int32, n)
		for i := range sets {
			if rng.Intn(4) == 0 {
				continue // an empty row
			}
			for k := rng.Intn(8); k > 0; k-- {
				if j := int32(rng.Intn(n)); int(j) != i {
					sets[i] = append(sets[i], j)
				}
			}
		}
		sys.Excl = topol.NewExclusions(sets)
		for k := rng.Intn(3 * n); k > 0; k-- {
			i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
			switch {
			case i == j:
			case rng.Intn(5) == 0 && len(sys.Excl.Of(int(i))) > 0:
				row := sys.Excl.Of(int(i)) // a 1-4 partner that is also an exclusion
				sys.Pairs14 = append(sys.Pairs14, [2]int32{i, row[rng.Intn(len(row))]})
			case i < j || rng.Intn(8) == 0:
				sys.Pairs14 = append(sys.Pairs14, [2]int32{i, j})
			default:
				sys.Pairs14 = append(sys.Pairs14, [2]int32{j, i})
			}
		}
		var raw []space.Pair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				raw = append(raw, space.Pair{I: int32(i), J: int32(j)})
			}
		}
		rng.Shuffle(len(raw), func(a, b int) { raw[a], raw[b] = raw[b], raw[a] })

		want := oldFilter(sys, raw)
		got := New(sys, DefaultOptions()).filterPairs(append([]space.Pair(nil), raw...))
		if len(got) != len(want) {
			t.Fatalf("seed %d: kept %d of %d pairs, the old predicate keeps %d", seed, len(got), len(raw), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("seed %d: pair %d is %v, the old predicate keeps %v", seed, k, got[k], want[k])
			}
		}
	}
}

// Without a pool the kernel sizes its scratch on the first Compute and
// allocates nothing after; a pooled Compute costs at most what three bare
// pool.Run calls cost by themselves (the helper goroutines).
func TestComputeAllocations(t *testing.T) {
	sys, pos := smallSystem(4)
	f := New(sys, PMEOptions())
	pairs := f.BuildPairs(pos, nil)
	frc := make([]vec.V, len(pos))

	inline := f.NewNonbondedKernel()
	inline.Compute(pos, pairs, frc, nil)
	if allocs := testing.AllocsPerRun(10, func() { inline.Compute(pos, pairs, frc, nil) }); allocs != 0 {
		t.Errorf("Compute without a pool allocates %v per call after its first", allocs)
	}

	pool := kernels.NewPool(4)
	pooled := f.NewNonbondedKernel()
	pooled.SetPool(pool)
	pooled.Compute(pos, pairs, frc, nil)
	nop := func(int) {}
	bare := testing.AllocsPerRun(20, func() {
		pool.Run(kernels.ShardCount, nop)
		pool.Run(kernels.ShardCount, nop)
		pool.Run(kernels.ShardCount, nop)
	})
	if allocs := testing.AllocsPerRun(20, func() { pooled.Compute(pos, pairs, frc, nil) }); allocs > bare {
		t.Errorf("pooled Compute allocates %v per call, its three bare pool.Run calls %v", allocs, bare)
	}
}

// One BuildPairs may allocate little beyond the list it returns (it took
// 5.7 times the list when the cells and the pair buffer grew by append),
// and a PairLister rebuilding at the same positions allocates nothing.
func TestListBuildAllocations(t *testing.T) {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	f := New(sys, PMEOptions())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pairs := f.BuildPairs(sys.Pos, nil)
	runtime.ReadMemStats(&after)
	list := uint64(len(pairs)) * uint64(unsafe.Sizeof(space.Pair{}))
	if got := after.TotalAlloc - before.TotalAlloc; 2*got > 3*list {
		t.Errorf("BuildPairs allocated %d bytes for a list of %d (%.2f×, ceiling 1.5×)", got, list, float64(got)/float64(list))
	}

	pl := f.NewPairLister()
	pl.Build(sys.Pos, nil)
	if allocs := testing.AllocsPerRun(3, func() { pl.Build(sys.Pos, nil) }); allocs != 0 {
		t.Errorf("steady-state PairLister.Build allocates %v per call", allocs)
	}
}
