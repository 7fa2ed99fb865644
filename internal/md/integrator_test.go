package md

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

func randomVecs(r *rng.Source, n int, scale float64) []vec.V {
	out := make([]vec.V, n)
	for i := range out {
		out[i] = vec.New(r.Range(-scale, scale), r.Range(-scale, scale), r.Range(-scale, scale))
	}
	return out
}

// randomPartition cuts [0, n) into p blocks at sorted random offsets, so
// blocks may be empty and p may exceed n.
func randomPartition(r *rng.Source, n, p int) []int {
	off := make([]int, p+1)
	off[p] = n
	for i := 1; i < p; i++ {
		off[i] = int(r.Range(0, float64(n+1)))
	}
	sort.Ints(off[1:p])
	return off
}

func sameBits(a, b []vec.V) bool {
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) ||
			math.Float64bits(a[i].Z) != math.Float64bits(b[i].Z) {
			return false
		}
	}
	return true
}

// TestIntegratorRangeAdditivity: the parallel engine advances each rank's
// atom block with the same Integrator the sequential step runs over every
// atom, so for any partition — empty blocks and more blocks than atoms
// included, in any block order — the block-by-block half-kick/drift/
// half-kick must give the bits of one whole-range pass.
func TestIntegratorRangeAdditivity(t *testing.T) {
	sys := waterBox(27, 12, 1)
	n := sys.N()
	in := NewEngine(sys, smallCutoffs(DefaultConfig())).Integrator()
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		pos0 := randomVecs(r, n, 12)
		vel0 := randomVecs(r, n, 0.05)
		frc0 := randomVecs(r, n, 30)
		frc1 := randomVecs(r, n, 30)

		pos := append([]vec.V(nil), pos0...)
		vel := append([]vec.V(nil), vel0...)
		in.KickDrift(pos, vel, frc0, 0, n)
		in.Kick(vel, frc1, 0, n)

		p := 1 + trial%7
		if trial%10 == 9 {
			p = n + 5
		}
		off := randomPartition(r, n, p)
		bpos := append([]vec.V(nil), pos0...)
		bvel := append([]vec.V(nil), vel0...)
		for rk := p - 1; rk >= 0; rk-- { // descending: block order must not matter
			in.KickDrift(bpos, bvel, frc0, off[rk], off[rk+1])
		}
		for rk := 0; rk < p; rk++ {
			in.Kick(bvel, frc1, off[rk], off[rk+1])
		}
		if !sameBits(pos, bpos) || !sameBits(vel, bvel) {
			t.Fatalf("trial %d, partition %v: block-wise step differs from the whole-range step", trial, off)
		}

		// A block's kinetic partial depends only on its own range, and a
		// one-block partition is the sequential sum.
		for rk := 0; rk < p; rk++ {
			lo, hi := off[rk], off[rk+1]
			var want float64
			for i := lo; i < hi; i++ {
				want += 0.5 * sys.Mass(i) * vel[i].Norm2()
			}
			if got := in.Kinetic(bvel, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d block [%d,%d): kinetic partial %x, want %x", trial, lo, hi, got, want)
			}
		}
	}
}

// TestListValidSkin pins the skin rule: a list survives displacements up
// to half the skin, inclusive, and a missing origin is never valid.
func TestListValidSkin(t *testing.T) {
	sys := waterBox(8, 12, 2)
	cfg := smallCutoffs(DefaultConfig()) // skin 1 Å, limit 0.5 Å
	in := NewEngine(sys, cfg).Integrator()
	origin := append([]vec.V(nil), sys.Pos...)
	origin[3] = vec.New(1, 2, 3) // exactly representable, so 0.5 Å is exact
	pos := append([]vec.V(nil), origin...)
	if in.ListValid(pos, nil) {
		t.Fatal("a list that was never built is valid")
	}
	pos[3] = origin[3].Add(vec.New(0.5, 0, 0))
	if !in.ListValid(pos, origin) {
		t.Fatal("half the skin must still be valid")
	}
	pos[3] = origin[3].Add(vec.New(0.5001, 0, 0))
	if in.ListValid(pos, origin) {
		t.Fatal("more than half the skin must invalidate the list")
	}
}
