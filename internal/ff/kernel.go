package ff

import (
	"math"
	"sync"

	"repro/internal/kernels"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// NonbondedKernel is the table-driven structure-of-arrays pair kernel. It
// owns the SoA scratch (positions and force accumulators as separate
// x/y/z slices) so the immutable ForceField stays safe for concurrent
// use: hold one kernel per goroutine/rank.
//
// Compute splits the pair list into pairShards(len(pairs)) contiguous
// blocks, each with its own energy partial. Block 0 accumulates into the
// force set acc[0], every later block into a zeroed spare set that is
// folded into acc[0] in ascending block order, so every atom's force is
// ((a0 + a1) + a2) + …, added to the caller's force once. The
// decomposition and the fold order depend only on the pair count, so
// results are byte-identical at every worker count; the pool only decides
// how many blocks run at once. A list of at most pairsPerShard pairs is
// one block, which is the plain serial loop bit for bit.
type NonbondedKernel struct {
	f          *ForceField
	x, y, z    []float64
	acc        []blockForces               // acc[0] sums the blocks; the rest are spare sets
	eLJ, eElec [kernels.ShardCount]float64 // per-block energy partials

	pool    *kernels.Pool
	shards  int // pair blocks of the current Compute
	spares  int // spare force sets of the current Compute
	atomOff []int
	pairOff []int

	// The fold: blocks below next are summed into acc[0], done marks the
	// finished blocks, and freed is signalled each time next advances.
	mu    sync.Mutex
	freed sync.Cond
	next  int
	done  [kernels.ShardCount]bool

	// Shard closures bound once by NewNonbondedKernel; per-call args in c* fields.
	fillFn, pairFn, mergeFn func(int)
	cPos                    []vec.V
	cPairs                  []space.Pair
	cFrc                    []vec.V
}

// blockForces is one set of per-atom force accumulators.
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
	k.freed.L = &k.mu
	// Fill and merge shard s covers atoms [atomOff[s], atomOff[s+1]) of
	// acc[0]; pair shard s owns block s.
	k.fillFn = func(s int) {
		x, y, z := k.x, k.y, k.z
		sum := &k.acc[0]
		for i := k.atomOff[s]; i < k.atomOff[s+1]; i++ {
			p := k.cPos[i]
			x[i], y[i], z[i] = p.X, p.Y, p.Z
			sum.fx[i], sum.fy[i], sum.fz[i] = 0, 0, 0
		}
	}
	k.pairFn = func(s int) {
		a := &k.acc[0]
		if s > 0 {
			// Block s's spare set last held block s − spares, which must
			// be folded out of it first.
			k.mu.Lock()
			for s > k.spares && k.next <= s-k.spares {
				k.freed.Wait()
			}
			k.mu.Unlock()
			a = k.spare(s)
			clear(a.fx)
			clear(a.fy)
			clear(a.fz)
		}
		k.block(s, a)
		// Whoever finishes the next block in order folds it and every
		// finished block after it; the others leave theirs to that one.
		k.mu.Lock()
		k.done[s] = true
		if s == k.next {
			for ; k.next < k.shards && k.done[k.next]; k.next++ {
				if b := k.next; b > 0 {
					k.mu.Unlock()
					k.fold(k.spare(b))
					k.mu.Lock()
				}
				k.freed.Broadcast()
			}
		}
		k.mu.Unlock()
	}
	k.mergeFn = func(s int) {
		sum := &k.acc[0]
		for i := k.atomOff[s]; i < k.atomOff[s+1]; i++ {
			if sx, sy, sz := sum.fx[i], sum.fy[i], sum.fz[i]; sx != 0 || sy != 0 || sz != 0 {
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

// spare returns the spare set block s ≥ 1 accumulates into.
func (k *NonbondedKernel) spare(s int) *blockForces { return &k.acc[1+(s-1)%k.spares] }

// fold adds a block's spare set into acc[0].
func (k *NonbondedKernel) fold(a *blockForces) {
	sum := &k.acc[0]
	for i := range a.fx {
		sum.fx[i] += a.fx[i]
		sum.fy[i] += a.fy[i]
		sum.fz[i] += a.fz[i]
	}
}

// Compute evaluates the prefiltered pair list like ForceField.Nonbonded:
// switched LJ plus truncated electrostatics, forces accumulated into frc,
// one PairEval charged per listed pair. Energies match the exact path to
// the table's measured accuracy; pairs closer than √U0 fall back to exact
// math in place.
func (k *NonbondedKernel) Compute(pos []vec.V, pairs []space.Pair, frc []vec.V, w *work.Counters) Energies {
	n := len(pos)
	k.shards = pairShards(len(pairs))
	// W workers hold at most W blocks in flight and W − 1 finished ones
	// waiting for an earlier block's fold: 2W − 1 spare sets, one at one
	// worker, none for a one-block list.
	k.spares = min(2*max(k.pool.Workers(), 1)-1, k.shards-1)
	if cap(k.x) < n {
		k.x = make([]float64, n)
		k.y = make([]float64, n)
		k.z = make([]float64, n)
	}
	k.x, k.y, k.z = k.x[:n], k.y[:n], k.z[:n]
	for len(k.acc) < 1+k.spares {
		k.acc = append(k.acc, blockForces{})
	}
	for s := range k.acc[:1+k.spares] {
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
	k.next = 0
	clear(k.done[:k.shards])
	k.pool.Run(k.shards, k.fillFn)
	k.pool.Run(k.shards, k.pairFn)
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
