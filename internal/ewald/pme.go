package ewald

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/memo"
	"repro/internal/space"
	"repro/internal/units"
	"repro/internal/vec"
	"repro/internal/work"
)

// PME computes the reciprocal-space part of the Ewald sum on a mesh. It
// owns its grid and FFT plan; one instance per simulated rank.
//
// Every loop runs as shards whose decomposition depends only on the mesh
// and the atom range, never on the worker count, and every cross-shard
// reduction merges in ascending shard order, so results are byte-identical
// whether the shards run inline (no pool, or one worker) or on N workers.
// The spread decomposes the x dimension into nChunks fixed chunks of width
// ≥ Order and runs two barrier passes — even chunks, then odd chunks. An
// atom's order-wide support starting in chunk c stays inside chunks
// {c, c+1} (cyclically), so chunks of equal parity never touch the same
// grid point concurrently, and every grid point receives its deposits in a
// fixed order (even-pass chunk first, bucketed atoms in index order). A
// mesh too narrow for four chunks is one chunk: the plain serial spread.
type PME struct {
	Box   space.Box
	Beta  float64
	K1    int
	K2    int
	K3    int
	Order int

	rplan  *fft.RealPlan3D // half-spectrum transform
	fftOps int64           // modelled flops of one Recip: two complex 3-D transforms
	rgrid  []float64       // Recip's buffers, allocated by its first call
	rconv  []float64
	spec   []complex128 // half spectrum, (K1/2+1)·K2·K3
	eCoefH []float64    // Hermitian-weighted energy coefs, half spectrum (shared, read-only)
	cCoefH []float64    // convolution coefs, half spectrum (shared, read-only)

	bsq1 []float64 // |b(m)|² per dimension
	bsq2 []float64
	bsq3 []float64

	pool    *kernels.Pool
	nChunks int       // x chunks of the spread: even and ≥ 4, or 1
	chunkOf []int32   // wrapped x base index → owning chunk
	buckets [][]int32 // per-chunk atom lists, rebuilt per spread call

	// Per-shard spline scratch (index max(nChunks, ShardCount)), partition
	// offsets and energy partials, reused across calls so the hot path
	// never allocates.
	scratch          []splineScratch
	gridOff, specOff []int
	atomOff          []int
	eParts           [kernels.ShardCount]float64

	// Shard closures are bound once by NewPME (a per-call closure would
	// allocate on every Recip); the per-call arguments travel through the
	// c* fields below, set immediately before each pool.Run.
	zeroFn, enerFn        func(int)
	spreadEven, spreadOdd func(int)
	interpFn              func(int)
	cPos                  []vec.V
	cQ                    []float64
	cFrc                  []vec.V
	cGrid                 []float64
}

// splineScratch is one shard's B-spline weights and their derivatives,
// Order values per dimension.
type splineScratch struct{ w1, w2, w3, dw1, dw2, dw3 []float64 }

// NewPME builds a PME engine for the given box, splitting parameter β
// (1/Å), mesh dimensions and interpolation order (≥ 3; the paper-era
// CHARMM default is 4). It panics on a non-positive β, an order outside
// 3..8, and a mesh it cannot transform — a dimension below 2·order, an odd
// K1, or a dimension with a prime factor above 31 (fft.Smooth) — which
// pmd.ValidateDecomp rejects as a typed error before any engine is built.
func NewPME(box space.Box, beta float64, k1, k2, k3, order int) *PME {
	if beta <= 0 {
		panic("ewald: non-positive beta")
	}
	if order < 3 || order > 8 {
		panic(fmt.Sprintf("ewald: unsupported order %d", order))
	}
	if k1 < 2*order || k2 < 2*order || k3 < 2*order {
		panic("ewald: mesh too small for interpolation order")
	}
	rplan, err := fft.NewRealPlan3D(k1, k2, k3)
	if err != nil {
		panic("ewald: " + err.Error())
	}
	p := &PME{
		Box: box, Beta: beta, K1: k1, K2: k2, K3: k3, Order: order,
		rplan:  rplan,
		fftOps: 2 * fft.Ops3D(k1, k2, k3),
	}
	p.bsq1 = bsplineModuli(k1, order)
	p.bsq2 = bsplineModuli(k2, order)
	p.bsq3 = bsplineModuli(k3, order)

	// X-chunk spread decomposition: the largest even chunk count whose
	// blocks are at least Order wide, or one chunk below four.
	c := k1 / order
	c -= c % 2
	if c < 4 {
		c = 1
	}
	p.nChunks = c
	off := kernels.Partition(k1, c, nil)
	p.chunkOf = make([]int32, k1)
	for i := 0; i < c; i++ {
		for x := off[i]; x < off[i+1]; x++ {
			p.chunkOf[x] = int32(i)
		}
	}
	p.buckets = make([][]int32, c)
	p.scratch = make([]splineScratch, max(c, kernels.ShardCount))
	buf := make([]float64, 6*order*len(p.scratch))
	next := func() []float64 {
		v := buf[:order:order]
		buf = buf[order:]
		return v
	}
	for i := range p.scratch {
		p.scratch[i] = splineScratch{next(), next(), next(), next(), next(), next()}
	}
	p.bindShards()
	return p
}

// SetPool attaches (or with nil detaches) the kernel pool Recip and Spread
// run their shards on, and hands it to the FFT plan. It
// decides which goroutines run the shards, never a result bit.
func (p *PME) SetPool(pool *kernels.Pool) {
	p.pool = pool
	p.rplan.SetPool(pool)
}

// bindShards builds the shard closures once so the hot path hands Run
// reusable funcs instead of allocating a capture per call.
func (p *PME) bindShards() {
	p.zeroFn = func(s int) {
		clear(p.rgrid[p.gridOff[s]:p.gridOff[s+1]])
	}
	p.enerFn = func(s int) {
		var e float64
		for i := p.specOff[s]; i < p.specOff[s+1]; i++ {
			re, im := real(p.spec[i]), imag(p.spec[i])
			e += p.eCoefH[i] * (re*re + im*im)
			p.spec[i] = complex(re*p.cCoefH[i], im*p.cCoefH[i])
		}
		p.eParts[s] = e
	}
	p.spreadEven = func(s int) { p.spreadChunk(2*s, p.cPos, p.cQ, p.cGrid) }
	p.spreadOdd = func(s int) { p.spreadChunk(2*s+1, p.cPos, p.cQ, p.cGrid) }
	p.interpFn = func(s int) {
		p.interpolateRange(p.rconv, p.cPos, p.cQ, p.atomOff[s], p.atomOff[s+1], p.cFrc, &p.scratch[s])
	}
}

// allocRecip sizes Recip's grid, convolution and spectrum buffers and
// their shard offsets, and takes the half-spectrum influence tables from
// halfTables. Recip calls it once, before its first fan-out, so no shard
// races on a first touch; a PME that only spreads never pays for it.
func (p *PME) allocRecip() {
	p.rgrid = make([]float64, p.GridLen())
	p.rconv = make([]float64, p.GridLen())
	p.spec = make([]complex128, p.rplan.SpectrumLen())
	bits := math.Float64bits
	key := halfKey{bits(p.Box.L.X), bits(p.Box.L.Y), bits(p.Box.L.Z), bits(p.Beta), p.K1, p.K2, p.K3, p.Order}
	h := halfTables.Get(key, p.buildHalfInfluence)
	p.eCoefH, p.cCoefH = h.e, h.c
	p.gridOff = kernels.Partition(len(p.rgrid), kernels.ShardCount, nil)
	p.specOff = kernels.Partition(len(p.spec), kernels.ShardCount, nil)
}

// bsplineModuli returns |b(m)|² for m = 0..K−1:
// b(m) = exp(2πi(n−1)m/K) / Σ_{k=0}^{n−2} M_n(k+1)·exp(2πi mk/K).
func bsplineModuli(k, order int) []float64 {
	out := make([]float64, k)
	for m := 0; m < k; m++ {
		var denom complex128
		for j := 0; j <= order-2; j++ {
			theta := 2 * math.Pi * float64(m) * float64(j) / float64(k)
			denom += complex(bsplineM(order, float64(j+1)), 0) * cmplx.Exp(complex(0, theta))
		}
		d2 := real(denom)*real(denom) + imag(denom)*imag(denom)
		if d2 < 1e-14 {
			// Interpolation cannot represent this frequency (can happen at
			// the Nyquist line for odd orders); drop it from the sum.
			out[m] = 0
		} else {
			out[m] = 1 / d2
		}
	}
	return out
}

// Ops returns the analytic FFT flop count for one Recip call (two complex
// 3-D transforms), for the performance model. It is a function of the mesh
// dimensions alone; no plan is built to answer it.
func (p *PME) Ops() int64 { return p.fftOps }

// GridLen returns the number of mesh points.
func (p *PME) GridLen() int { return p.K1 * p.K2 * p.K3 }

// Recip computes the reciprocal-space Ewald energy (kcal/mol) and
// accumulates forces into frc. The mesh pipeline is: spread charges onto
// a real grid → forward half-spectrum FFT → multiply by the precomputed
// influence coefficients → inverse FFT → interpolate forces. The energy
// sums eCoefH·|F(Q)|² over the stored half spectrum only; eCoefH carries
// weight 2 on interior kx planes (each stands in for its conjugate mirror
// F(K1−kx, −ky, −kz) = conj F, which has the same |F|² and — because ψ
// reads the frequencies only squared and the moduli are even — the same ψ)
// and weight 1 on the self-conjugate kx = 0 and kx = K1/2 planes. The
// per-shard energy partials merge in shard order. Counters, if non-nil,
// record the work.
func (p *PME) Recip(pos []vec.V, charges []float64, frc []vec.V, w *work.Counters) float64 {
	if p.rgrid == nil {
		p.allocRecip()
	}
	p.pool.Run(kernels.ShardCount, p.zeroFn)
	p.Spread(pos, charges, p.rgrid)
	p.rplan.Forward(p.rgrid, p.spec) // rgrid preserved for the grid-dot check
	p.pool.Run(kernels.ShardCount, p.enerFn)
	var energy float64
	for _, e := range p.eParts {
		energy += e
	}
	p.rplan.Inverse(p.spec, p.rconv)
	p.interpolate(pos, charges, frc)
	// The counters charge the modelled cost — complex-transform flops and
	// full-mesh influence points — not the half-spectrum work the host
	// does, so virtual-time figures are independent of host-side
	// optimizations.
	if w != nil {
		n := int64(len(pos))
		o3 := int64(p.Order * p.Order * p.Order)
		w.GridCharges += 2 * n * o3 // spread + interpolate
		w.FFTOps += p.Ops()
		w.RecipPoints += int64(p.GridLen())
	}
	return energy
}

// bucketByChunk fills p.buckets with the atoms keyed by the x chunk owning
// their B-spline support base, in ascending atom order.
func (p *PME) bucketByChunk(pos []vec.V, charges []float64) {
	for c := range p.buckets {
		p.buckets[c] = p.buckets[c][:0]
	}
	k1f := float64(p.K1)
	for i := range pos {
		if charges[i] == 0 {
			continue
		}
		k01 := splineBase(p.Order, p.Box.Frac(pos[i]).X*k1f)
		c := p.chunkOf[mod(k01, p.K1)]
		p.buckets[c] = append(p.buckets[c], int32(i))
	}
}

// spreadChunk deposits one chunk's bucketed atoms using the chunk's
// private spline scratch.
func (p *PME) spreadChunk(c int, pos []vec.V, charges []float64, grid []float64) {
	order := p.Order
	sc := &p.scratch[c]
	w1, w2, w3, dw1, dw2, dw3 := sc.w1, sc.w2, sc.w3, sc.dw1, sc.dw2, sc.dw3
	var i1, i2, i3 [maxOrder]int
	for _, ii := range p.buckets[c] {
		i := int(ii)
		q := charges[i]
		f := p.Box.Frac(pos[i])
		u1 := f.X * float64(p.K1)
		u2 := f.Y * float64(p.K2)
		u3 := f.Z * float64(p.K3)
		k01 := splineWeights(order, u1, w1, dw1)
		k02 := splineWeights(order, u2, w2, dw2)
		k03 := splineWeights(order, u3, w3, dw3)
		p.wrapIndices(k01, k02, k03, &i1, &i2, &i3)
		for a := 0; a < order; a++ {
			row := i1[a] * p.K2
			qa := q * w1[a]
			for b := 0; b < order; b++ {
				qab := qa * w2[b]
				base := (row + i2[b]) * p.K3
				for c3 := 0; c3 < order; c3++ {
					grid[base+i3[c3]] += qab * w3[c3]
				}
			}
		}
	}
}

// interpolate differentiates the B-spline interpolant of Recip's real
// conv grid at the charge sites, F = −q·∇θ with ∂u/∂x = K/L per
// dimension, over kernels.ShardCount fixed ranges of the atoms; each
// atom's force is written by exactly one shard.
func (p *PME) interpolate(pos []vec.V, charges []float64, frc []vec.V) {
	p.atomOff = kernels.Partition(len(pos), kernels.ShardCount, p.atomOff)
	p.cPos, p.cQ, p.cFrc = pos, charges, frc
	p.pool.Run(kernels.ShardCount, p.interpFn)
}

// halfTables shares the half-spectrum influence coefficients among the
// PMEs of a process with equal box edges, β, mesh and order (1.25 MB on
// the paper mesh): Recip only reads them, and every engine built over one
// workload asks for the same ones.
var halfTables memo.Map[halfKey, halfCoefs]

// halfKey is what buildHalfInfluence builds from, the floats by their bits.
type halfKey struct {
	lx, ly, lz, beta  uint64
	k1, k2, k3, order int
}

// halfCoefs is a PME's eCoefH and cCoefH.
type halfCoefs struct{ e, c []float64 }

// buildHalfInfluence precomputes the influence coefficients over the
// stored half spectrum from p's factored table, folding the Hermitian
// energy weight into eCoefH. One-time cost per process and key; it
// removes every exp/ψ evaluation from the step loop.
func (p *PME) buildHalfInfluence() halfCoefs {
	hx := p.rplan.HX()
	h := halfCoefs{make([]float64, hx*p.K2*p.K3), make([]float64, hx*p.K2*p.K3)}
	psi := p.Influence()
	eC, cC := make([]float64, p.K1), make([]float64, p.K1)
	for m2 := 0; m2 < p.K2; m2++ {
		for m3 := 0; m3 < p.K3; m3++ {
			psi.Line(m2, m3, eC, cC)
			for m1 := 0; m1 < hx; m1++ {
				weight := 2.0
				if m1 == 0 || 2*m1 == p.K1 {
					weight = 1.0
				}
				idx := (m1*p.K2+m2)*p.K3 + m3
				h.e[idx] = weight * eC[m1]
				h.c[idx] = cC[m1]
			}
		}
	}
	return h
}

// Spread deposits the charges onto grid (row-major K1×K2×K3, not zeroed
// here) with B-spline weights: it buckets the atoms by x chunk and runs
// the chunk kernel in two parity passes. Recip spreads through it.
func (p *PME) Spread(pos []vec.V, charges []float64, grid []float64) {
	p.bucketByChunk(pos, charges)
	p.cPos, p.cQ, p.cGrid = pos, charges, grid
	p.pool.Run((p.nChunks+1)/2, p.spreadEven)
	p.pool.Run(p.nChunks/2, p.spreadOdd)
}

// maxOrder bounds the interpolation order (NewPME rejects order > 8) so
// per-atom wrapped grid indices fit in fixed stack arrays.
const maxOrder = 8

// wrapIndices precomputes the periodic grid indices of one atom's support:
// 3·order mods instead of one per visited mesh point.
func (p *PME) wrapIndices(k01, k02, k03 int, i1, i2, i3 *[maxOrder]int) {
	for t := 0; t < p.Order; t++ {
		i1[t] = mod(k01+t, p.K1)
		i2[t] = mod(k02+t, p.K2)
		i3[t] = mod(k03+t, p.K3)
	}
}

// Influence is the PME influence function ψ of one mesh, factored the way
// its arithmetic splits: at mesh frequency (m1, m2, m3),
//
//	eCoef = pref·(g·((b1[m1]·b2[m2])·b3[m3])),  cCoef = 2·eCoef·N,
//
// with g = exp(−π²m²/β²)/m² and b the B-spline moduli. The signed
// frequencies enter g only squared, so g is bitwise the same at m and K−m
// in each dimension and is tabulated once over the folded octant
// (|f1|, |f2|, |f3|), (K1/2+1)·(K2/2+1)·(K3/2+1) entries, |f1| fastest.
// eCoef is the coefficient of |F(Q)|² in the reciprocal energy; cCoef
// scales the spectrum before the normalized inverse FFT so the resulting
// conv grid drives force interpolation. Both are zero at the origin, where
// the table holds g = 0. An Influence is immutable once built, so any
// number of goroutines may read it at once.
type Influence struct {
	k1, k2, k3       int
	g                []float64
	bsq1, bsq2, bsq3 []float64 // shared with the PME that built it
	pref, n          float64
}

// Influence tabulates ψ of p's mesh: one exp per folded frequency.
func (p *PME) Influence() *Influence {
	h1, h2, h3 := p.K1/2+1, p.K2/2+1, p.K3/2+1
	in := &Influence{
		k1: p.K1, k2: p.K2, k3: p.K3,
		g:    make([]float64, h1*h2*h3),
		bsq1: p.bsq1, bsq2: p.bsq2, bsq3: p.bsq3,
		pref: units.CoulombConst / (2 * math.Pi * p.Box.Volume()),
		n:    float64(p.GridLen()),
	}
	betaFac := math.Pi * math.Pi / (p.Beta * p.Beta)
	i := 0
	for f2 := 0; f2 < h2; f2++ {
		my := float64(f2) / p.Box.L.Y
		for f3 := 0; f3 < h3; f3++ {
			mz := float64(f3) / p.Box.L.Z
			for f1 := 0; f1 < h1; f1++ {
				mx := float64(f1) / p.Box.L.X
				if m2norm := mx*mx + my*my + mz*mz; m2norm > 0 {
					in.g[i] = math.Exp(-betaFac*m2norm) / m2norm
				}
				i++
			}
		}
	}
	return in
}

// Line writes ψ along the x-line (·, m2, m3): eC[m1] and cC[m1] are eCoef
// and cCoef at (m1, m2, m3) for m1 = 0..K1−1.
func (in *Influence) Line(m2, m3 int, eC, cC []float64) {
	h1 := in.k1/2 + 1
	base := (fold(m2, in.k2)*(in.k3/2+1) + fold(m3, in.k3)) * h1
	g := in.g[base : base+h1]
	b2, b3 := in.bsq2[m2], in.bsq3[m3]
	eC, cC = eC[:in.k1], cC[:in.k1]
	for m1, b1 := range in.bsq1 {
		e := in.pref * (g[fold(m1, in.k1)] * (b1 * b2 * b3))
		eC[m1], cC[m1] = e, 2*e*in.n
	}
}

// fold maps mesh index m to |f|, the magnitude of its signed frequency in
// [−K/2, K/2).
func fold(m, k int) int { return min(m, k-m) }

// interpolateRange is interpolate over atoms [lo, hi) with one shard's
// spline scratch, the products grouped to hoist the a/b spline factors
// out of the inner loop.
func (p *PME) interpolateRange(conv []float64, pos []vec.V, charges []float64, lo, hi int, frc []vec.V, sc *splineScratch) {
	w1, w2, w3, dw1, dw2, dw3 := sc.w1, sc.w2, sc.w3, sc.dw1, sc.dw2, sc.dw3
	order := p.Order
	s1 := float64(p.K1) / p.Box.L.X
	s2 := float64(p.K2) / p.Box.L.Y
	s3 := float64(p.K3) / p.Box.L.Z
	var i1, i2, i3 [maxOrder]int
	for i := lo; i < hi; i++ {
		q := charges[i]
		if q == 0 {
			continue
		}
		f := p.Box.Frac(pos[i])
		u1 := f.X * float64(p.K1)
		u2 := f.Y * float64(p.K2)
		u3 := f.Z * float64(p.K3)
		k01 := splineWeights(order, u1, w1, dw1)
		k02 := splineWeights(order, u2, w2, dw2)
		k03 := splineWeights(order, u3, w3, dw3)
		p.wrapIndices(k01, k02, k03, &i1, &i2, &i3)
		var gx, gy, gz float64
		for a := 0; a < order; a++ {
			w1a, dw1a := w1[a], dw1[a]
			row := i1[a] * p.K2
			for b := 0; b < order; b++ {
				base := (row + i2[b]) * p.K3
				// Inner sums over z with the x/y factors applied once.
				var s, sz float64
				for c := 0; c < order; c++ {
					t := conv[base+i3[c]]
					s += w3[c] * t
					sz += dw3[c] * t
				}
				w2b, dw2b := w2[b], dw2[b]
				gx += dw1a * w2b * s
				gy += w1a * dw2b * s
				gz += w1a * w2b * sz
			}
		}
		if frc != nil {
			frc[i] = frc[i].Add(vec.New(-q*gx*s1, -q*gy*s2, -q*gz*s3))
		}
	}
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// SelfEnergy returns the Ewald self-interaction correction
// −(β/√π)·Σ q², in kcal/mol.
func SelfEnergy(charges []float64, beta float64) float64 {
	var s float64
	for _, q := range charges {
		s += q * q
	}
	return -units.CoulombConst * beta / math.SqrtPi * s
}

// BackgroundEnergy returns the neutralizing-background correction
// −π/(2β²V)·(Σq)², zero for neutral cells.
func BackgroundEnergy(charges []float64, beta, volume float64) float64 {
	var s float64
	for _, q := range charges {
		s += q
	}
	return -units.CoulombConst * math.Pi / (2 * beta * beta * volume) * s * s
}

// Excluder is the subset of topol.Exclusions the correction needs.
type Excluder interface {
	Of(i int) []int32
}

// ExclusionCorrection removes the reciprocal-space contribution of excluded
// (1-2, 1-3) pairs: E = −Σ qiqj·erf(βr)/r, with matching forces
// accumulated into frc. Each pair is visited once, in the row of its
// lower index. Counters record one pair evaluation per excluded pair.
func ExclusionCorrection(box space.Box, pos []vec.V, charges []float64, excl Excluder, beta float64, frc []vec.V, w *work.Counters) float64 {
	var e float64
	var pairs int64
	for i := range pos {
		for _, j32 := range excl.Of(i) {
			j := int(j32)
			if j <= i {
				continue
			}
			pairs++
			qq := charges[i] * charges[j]
			if qq == 0 {
				continue
			}
			d := box.MinImage(pos[i], pos[j])
			r := d.Norm()
			if r == 0 {
				continue
			}
			erf := math.Erf(beta * r)
			e -= units.CoulombConst * qq * erf / r
			// E = −C·qq·erf(βr)/r, so
			// dE/dr = −C·qq·(2β/√π·e^{−β²r²}/r − erf(βr)/r²).
			de := -units.CoulombConst * qq * (2*beta/math.SqrtPi*math.Exp(-beta*beta*r*r)/r - erf/(r*r))
			if frc != nil {
				fv := d.Scale(-de / r)
				frc[i] = frc[i].Add(fv)
				frc[j] = frc[j].Sub(fv)
			}
		}
	}
	if w != nil {
		w.PairEvals += pairs
	}
	return e
}
