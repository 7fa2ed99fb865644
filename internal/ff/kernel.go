package ff

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// NonbondedKernel is the table-driven structure-of-arrays pair kernel. It
// owns the SoA scratch (positions and per-block force accumulators as
// separate x/y/z slices) so the immutable ForceField stays safe for
// concurrent use: hold one kernel per goroutine/rank.
//
// Compute splits the pair list into pairShards(len(pairs)) contiguous
// blocks; each block accumulates into its own force arrays and energy
// partial, and every atom's force is the sum of the blocks' arrays in
// ascending block order, added to the caller's force once. The
// decomposition depends only on the pair count, so results are
// byte-identical at every worker count; the pool only decides how many
// blocks run at once. A list of at most pairsPerShard pairs is one block,
// which is the plain serial loop bit for bit: its sum is added to +0,
// which is exact because pairRange's accumulators start at +0 and so
// never hold −0.
type NonbondedKernel struct {
	f          *ForceField
	x, y, z    []float64
	acc        []blockForces               // force arrays, one per block in flight
	eLJ, eElec [kernels.ShardCount]float64 // per-block energy partials

	pool    *kernels.Pool
	shards  int // pair blocks of the current Compute
	merged  int // force arrays the merge sums: shards, or 1 after an inline fold
	atomOff []int
	pairOff []int

	// Shard closures bound once by NewNonbondedKernel; per-call args in c* fields.
	fillFn, pairFn, mergeFn func(int)
	cPos                    []vec.V
	cPairs                  []space.Pair
	cFrc                    []vec.V
}

// blockForces is one pair block's force accumulators.
type blockForces struct{ fx, fy, fz []float64 }

// pairsPerShard is how many pairs one block of the list carries before
// the list is split further. The paper system's 574 k-pair list reaches
// kernels.ShardCount blocks; a p = 8 rank's slice of it gets three.
const pairsPerShard = 32768

// pairShards is the number of blocks a list of n pairs is split into:
// ⌈n/pairsPerShard⌉, at least 1 and at most kernels.ShardCount. It is a
// pure function of n, never of the worker count.
func pairShards(n int) int {
	return min(max((n+pairsPerShard-1)/pairsPerShard, 1), kernels.ShardCount)
}

// NewNonbondedKernel returns a kernel with its own scratch over f. It
// runs its blocks inline until SetPool attaches a pool of several workers.
func (f *ForceField) NewNonbondedKernel() *NonbondedKernel {
	k := &NonbondedKernel{f: f}
	// Fill and merge shard s covers atoms [atomOff[s], atomOff[s+1]) of
	// the merged force arrays; pair shard s owns block s.
	k.fillFn = func(s int) {
		lo, hi := k.atomOff[s], k.atomOff[s+1]
		x, y, z := k.x, k.y, k.z
		for i := lo; i < hi; i++ {
			p := k.cPos[i]
			x[i], y[i], z[i] = p.X, p.Y, p.Z
		}
		for _, a := range k.acc[:k.merged] {
			clear(a.fx[lo:hi])
			clear(a.fy[lo:hi])
			clear(a.fz[lo:hi])
		}
	}
	k.pairFn = func(s int) { k.block(s, &k.acc[s]) }
	k.mergeFn = func(s int) {
		acc := k.acc[:k.merged]
		for i := k.atomOff[s]; i < k.atomOff[s+1]; i++ {
			var sx, sy, sz float64
			for _, a := range acc {
				sx += a.fx[i]
				sy += a.fy[i]
				sz += a.fz[i]
			}
			if sx != 0 || sy != 0 || sz != 0 {
				k.cFrc[i] = k.cFrc[i].Add(vec.New(sx, sy, sz))
			}
		}
	}
	return k
}

// SetPool attaches (or with nil detaches) the kernel pool the blocks run
// on. It changes which goroutines run the blocks, never a result bit.
func (k *NonbondedKernel) SetPool(p *kernels.Pool) { k.pool = p }

// block evaluates pair block s into a, which the caller has zeroed.
func (k *NonbondedKernel) block(s int, a *blockForces) {
	k.eLJ[s], k.eElec[s] = k.f.pairRange(k.x, k.y, k.z,
		k.cPairs[k.pairOff[s]:k.pairOff[s+1]], a.fx, a.fy, a.fz)
}

// Compute evaluates the prefiltered pair list like ForceField.Nonbonded:
// switched LJ plus truncated electrostatics, forces accumulated into frc,
// one PairEval charged per listed pair. Energies match the exact path to
// the table's measured accuracy; pairs closer than √U0 fall back to exact
// math in place.
func (k *NonbondedKernel) Compute(pos []vec.V, pairs []space.Pair, frc []vec.V, w *work.Counters) Energies {
	n := len(pos)
	k.shards = pairShards(len(pairs))
	// Blocks running one after another need two sets of force arrays, not
	// one per block: see the fold below.
	inline := k.shards > 1 && k.pool.Workers() <= 1
	sets := k.shards
	k.merged = k.shards
	if inline {
		sets, k.merged = 2, 1
	}
	if cap(k.x) < n {
		k.x = make([]float64, n)
		k.y = make([]float64, n)
		k.z = make([]float64, n)
	}
	k.x, k.y, k.z = k.x[:n], k.y[:n], k.z[:n]
	for len(k.acc) < sets {
		k.acc = append(k.acc, blockForces{})
	}
	for s := range k.acc[:sets] {
		a := &k.acc[s]
		if cap(a.fx) < n {
			a.fx = make([]float64, n)
			a.fy = make([]float64, n)
			a.fz = make([]float64, n)
		}
		a.fx, a.fy, a.fz = a.fx[:n], a.fy[:n], a.fz[:n]
	}
	k.atomOff = kernels.Partition(n, k.shards, k.atomOff)
	k.pairOff = kernels.Partition(len(pairs), k.shards, k.pairOff)
	k.cPos, k.cPairs, k.cFrc = pos, pairs, frc
	k.pool.Run(k.shards, k.fillFn)
	if inline {
		// Block 0 accumulates into acc[0]; every later block into a zeroed
		// acc[1], which is then added into acc[0]. Each atom's sum is
		// ((a0 + a1) + a2) + …, the merge's 0 + a0 + a1 + … in the same
		// order (0 + a0 is exact: a0 is never −0), so the bits are the
		// parallel path's.
		sum, b := &k.acc[0], &k.acc[1]
		k.block(0, sum)
		for s := 1; s < k.shards; s++ {
			clear(b.fx)
			clear(b.fy)
			clear(b.fz)
			k.block(s, b)
			for i := range sum.fx {
				sum.fx[i] += b.fx[i]
				sum.fy[i] += b.fy[i]
				sum.fz[i] += b.fz[i]
			}
		}
	} else {
		k.pool.Run(k.shards, k.pairFn)
	}
	k.pool.Run(k.shards, k.mergeFn)
	var eLJ, eElec float64
	for s := 0; s < k.shards; s++ {
		eLJ += k.eLJ[s]
		eElec += k.eElec[s]
	}
	if w != nil {
		w.PairEvals += int64(len(pairs))
	}
	return Energies{LJ: eLJ, Elec: eElec}
}

// pairRange evaluates one contiguous block of the pair list against the
// SoA positions, accumulating forces into the caller's fx/fy/fz arrays.
// It is the single source of the tabulated pair arithmetic.
func (f *ForceField) pairRange(x, y, z []float64, pairs []space.Pair, fx, fy, fz []float64) (eLJ, eElec float64) {
	tab := f.table
	ljA := f.ljA
	ljB := f.ljB[:len(ljA)]
	nt := f.ntypes
	coef := tab.coef
	u0, inv := tab.U0, tab.inv
	nIntervals := tab.n
	box := f.Sys.Box
	lx, ly, lz := box.L.X, box.L.Y, box.L.Z
	invLx, invLy, invLz := 1/lx, 1/ly, 1/lz
	// Within 0.49·L of each other on an axis the nearest image is the atom
	// itself: |d·(1/L)| < 0.5, math.Round gives ±0 and d − L·(±0) is d bit
	// for bit. Only pairs that straddle a periodic face pay for the
	// rounding. (The one exception, d = −0, came out of the subtraction as
	// +0; the sign reaches nothing but the zero fmag·d added to force
	// accumulators that start at +0 and so never hold −0.)
	hx, hy, hz := 0.49*lx, 0.49*ly, 0.49*lz
	cut2 := f.Opts.CutOff * f.Opts.CutOff

	// One length for every per-atom array, so one bounds check per index
	// covers them all.
	n := len(x)
	y, z = y[:n], z[:n]
	fx, fy, fz = fx[:n], fy[:n], fz[:n]
	charge, typ := f.charge[:n], f.typ[:n]

	for _, p := range pairs {
		i, j := int(p.I), int(p.J)
		dx := x[i] - x[j]
		dy := y[i] - y[j]
		dz := z[i] - z[j]
		if dx > hx || dx < -hx {
			dx -= lx * math.Round(dx*invLx)
		}
		if dy > hy || dy < -hy {
			dy -= ly * math.Round(dy*invLy)
		}
		if dz > hz || dz < -hz {
			dz -= lz * math.Round(dz*invLz)
		}
		u := dx*dx + dy*dy + dz*dz
		if u > cut2 || u == 0 {
			continue
		}
		qq := charge[i] * charge[j]
		var dedu float64
		if u >= u0 {
			ui := (u - u0) * inv
			ii := int(ui)
			if ii >= nIntervals {
				ii = nIntervals - 1
			}
			t := ui - float64(ii)
			c := coef[ii*12 : ii*12+12 : ii*12+12]
			tij := int(typ[i])*nt + int(typ[j])
			A, B := ljA[tij], ljB[tij]
			e12 := ((c[3]*t+c[2])*t+c[1])*t + c[0]
			g12 := (3*c[3]*t+2*c[2])*t + c[1]
			e6 := ((c[7]*t+c[6])*t+c[5])*t + c[4]
			g6 := (3*c[7]*t+2*c[6])*t + c[5]
			ee := ((c[11]*t+c[10])*t+c[9])*t + c[8]
			ge := (3*c[11]*t+2*c[10])*t + c[9]
			eLJ += A*e12 - B*e6
			eElec += qq * ee
			dedu = (A*g12 - B*g6 + qq*ge) * inv
		} else {
			// Close contact below the table domain: exact math.
			r := math.Sqrt(u)
			elj, dlj := f.ljKernel(p.I, p.J, r)
			s, dsdr := f.switchFn(r)
			eLJ += elj * s
			dedr := dlj*s + elj*dsdr
			if qq != 0 {
				ee, de := f.elecKernel(r)
				eElec += qq * ee
				dedr += qq * de
			}
			dedu = dedr / (2 * r)
		}
		fmag := -2 * dedu
		gx, gy, gz := fmag*dx, fmag*dy, fmag*dz
		fx[i] += gx
		fy[i] += gy
		fz[i] += gz
		fx[j] -= gx
		fy[j] -= gy
		fz[j] -= gz
	}
	return eLJ, eElec
}
