package ff

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/space"
	"repro/internal/vec"
	"repro/internal/work"
)

// NonbondedKernel is the table-driven structure-of-arrays pair kernel. It
// owns the SoA scratch (positions and force accumulators as separate
// x/y/z slices) so the immutable ForceField stays safe for concurrent use:
// hold one kernel per goroutine/rank. When the force field was built with
// ExactKernels, Compute transparently delegates to the reference
// ForceField.Nonbonded.
//
// SetPool attaches a kernel pool: the pair list is split into
// kernels.ShardCount fixed contiguous blocks, each block accumulates into
// its own force arrays and energy partials, and a second pooled pass
// merges the per-shard forces over fixed atom ranges — always summing
// shards in ascending order. The decomposition depends only on the pair
// count, so pooled results are byte-identical at every worker count
// (though, as a regrouped reduction, not to the serial path — a nil pool
// preserves the legacy bytes exactly).
type NonbondedKernel struct {
	f          *ForceField
	x, y, z    []float64
	fx, fy, fz []float64

	pool          *kernels.Pool
	sfx, sfy, sfz [][]float64 // per-shard force accumulators
	seLJ, seElec  []float64   // per-shard energy partials
	atomOff       []int
	pairOff       []int

	// Shard closures bound once by SetPool; per-call args in c* fields.
	fillFn, pairFn, mergeFn func(int)
	cPos                    []vec.V
	cPairs                  []space.Pair
	cFrc                    []vec.V
}

// NewNonbondedKernel returns a kernel with its own scratch over f.
func (f *ForceField) NewNonbondedKernel() *NonbondedKernel {
	return &NonbondedKernel{f: f}
}

// SetPool attaches (or with nil detaches) the kernel pool. Per-shard
// accumulators are sized on the first Compute, before any pooled pass
// runs, and reused across steps.
func (k *NonbondedKernel) SetPool(p *kernels.Pool) {
	k.pool = p
	if p == nil {
		k.sfx, k.sfy, k.sfz = nil, nil, nil
		k.seLJ, k.seElec = nil, nil
		return
	}
	k.seLJ = make([]float64, kernels.ShardCount)
	k.seElec = make([]float64, kernels.ShardCount)
	k.fillFn = func(s int) {
		x, y, z := k.x, k.y, k.z
		for i := k.atomOff[s]; i < k.atomOff[s+1]; i++ {
			p := k.cPos[i]
			x[i], y[i], z[i] = p.X, p.Y, p.Z
		}
		fx, fy, fz := k.sfx[s], k.sfy[s], k.sfz[s]
		for i := range fx {
			fx[i], fy[i], fz[i] = 0, 0, 0
		}
	}
	k.pairFn = func(s int) {
		k.seLJ[s], k.seElec[s] = k.f.pairRange(k.x, k.y, k.z,
			k.cPairs[k.pairOff[s]:k.pairOff[s+1]], k.sfx[s], k.sfy[s], k.sfz[s])
	}
	k.mergeFn = func(s int) {
		for i := k.atomOff[s]; i < k.atomOff[s+1]; i++ {
			var sx, sy, sz float64
			for sh := 0; sh < kernels.ShardCount; sh++ {
				sx += k.sfx[sh][i]
				sy += k.sfy[sh][i]
				sz += k.sfz[sh][i]
			}
			if sx != 0 || sy != 0 || sz != 0 {
				k.cFrc[i] = k.cFrc[i].Add(vec.New(sx, sy, sz))
			}
		}
	}
}

// Compute evaluates the prefiltered pair list like ForceField.Nonbonded:
// switched LJ plus truncated electrostatics, forces accumulated into frc,
// one PairEval charged per listed pair. Energies match the exact path to
// the table's measured accuracy; pairs closer than √U0 fall back to exact
// math in place.
func (k *NonbondedKernel) Compute(pos []vec.V, pairs []space.Pair, frc []vec.V, w *work.Counters) Energies {
	f := k.f
	if f.table == nil {
		// ExactKernels reference path: always serial, bit-for-bit,
		// regardless of any attached pool.
		return f.Nonbonded(pos, pairs, frc, w)
	}
	n := len(pos)
	if cap(k.x) < n {
		k.x = make([]float64, n)
		k.y = make([]float64, n)
		k.z = make([]float64, n)
		k.fx = make([]float64, n)
		k.fy = make([]float64, n)
		k.fz = make([]float64, n)
	}
	if k.pool != nil {
		return k.computePooled(pos, pairs, frc, w)
	}
	x, y, z := k.x[:n], k.y[:n], k.z[:n]
	fx, fy, fz := k.fx[:n], k.fy[:n], k.fz[:n]
	for i, p := range pos {
		x[i], y[i], z[i] = p.X, p.Y, p.Z
		fx[i], fy[i], fz[i] = 0, 0, 0
	}
	eLJ, eElec := f.pairRange(x, y, z, pairs, fx, fy, fz)
	for i := range fx {
		if fx[i] != 0 || fy[i] != 0 || fz[i] != 0 {
			frc[i] = frc[i].Add(vec.New(fx[i], fy[i], fz[i]))
		}
	}
	if w != nil {
		w.PairEvals += int64(len(pairs))
	}
	return Energies{LJ: eLJ, Elec: eElec}
}

// computePooled is the sharded pair loop: fixed pair blocks accumulate
// into per-shard arrays, then a fixed-range merge folds the shards into
// frc in ascending shard order.
func (k *NonbondedKernel) computePooled(pos []vec.V, pairs []space.Pair, frc []vec.V, w *work.Counters) Energies {
	n := len(pos)
	if len(k.sfx) == 0 || cap(k.sfx[0]) < n {
		k.sfx = shardArrays(n)
		k.sfy = shardArrays(n)
		k.sfz = shardArrays(n)
	}
	for s := 0; s < kernels.ShardCount; s++ {
		k.sfx[s] = k.sfx[s][:n]
		k.sfy[s] = k.sfy[s][:n]
		k.sfz[s] = k.sfz[s][:n]
	}
	k.x, k.y, k.z = k.x[:n], k.y[:n], k.z[:n]
	k.atomOff = kernels.Partition(n, kernels.ShardCount, k.atomOff)
	k.pairOff = kernels.Partition(len(pairs), kernels.ShardCount, k.pairOff)
	k.cPos, k.cPairs, k.cFrc = pos, pairs, frc
	k.pool.Run(kernels.ShardCount, k.fillFn)
	k.pool.Run(kernels.ShardCount, k.pairFn)
	k.pool.Run(kernels.ShardCount, k.mergeFn)
	var eLJ, eElec float64
	for s := 0; s < kernels.ShardCount; s++ {
		eLJ += k.seLJ[s]
		eElec += k.seElec[s]
	}
	if w != nil {
		w.PairEvals += int64(len(pairs))
	}
	return Energies{LJ: eLJ, Elec: eElec}
}

func shardArrays(n int) [][]float64 {
	out := make([][]float64, kernels.ShardCount)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}

// pairRange evaluates one contiguous block of the pair list against the
// SoA positions, accumulating forces into the caller's fx/fy/fz arrays.
// It is the single source of the pair arithmetic for both the serial and
// the sharded path, so the two differ only in how partial sums are
// grouped.
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
