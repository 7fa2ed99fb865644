package fft

import (
	"fmt"

	"repro/internal/kernels"
)

// RealPlan3D computes forward/inverse 3-D DFTs of real row-major data
// indexed [x][y][z] (element (ix, iy, iz) at (ix·Ny + iy)·Nz + iz), storing
// only the non-redundant half spectrum kx = 0..Nx/2. For the real charge
// grids of PME this is ~2× less transform work and half the spectrum
// memory of a complex Plan3D; the discarded half follows from Hermitian
// symmetry F(Nx−kx, (Ny−ky) mod Ny, (Nz−kz) mod Nz) = conj(F(kx, ky, kz)).
//
// The x lines (stride Ny·Nz, adjacent in y·z) go through the 1-D RealPlan a
// block of lines at a time, straight between the grid and the spectrum; the
// half-spectrum planes are contiguous and use a complex Plan2D in place.
// Like all plans in this package, a RealPlan3D is not safe for concurrent
// use.
type RealPlan3D struct {
	nx, ny, nz int
	hx         int // nx/2 + 1 stored x frequencies
	rpx        *RealPlan
	plane      *Plan2D

	pool   *kernels.Pool  // nil → serial transforms
	shards []*realShard3D // per-shard plans when pooled

	// Shard functions are bound once at SetPool (a per-call closure would
	// escape to the pool's helper goroutines and allocate on every
	// transform); the per-call arguments travel through cx and cspec, set
	// immediately before each pool.Run.
	fwdLines, fwdPlanes func(int)
	invPlanes, invLines func(int)
	cx                  []float64
	cspec               []complex128
}

// realShard3D is one worker shard's private transform state: its own 1-D
// real and 2-D complex plans, which is to say its own scratch — the tables
// are the primary plan's. A line transformed by any shard therefore
// produces bits identical to the primary plan's, which is why the pooled
// transform is bitwise equal to the serial one at every worker count: every
// output element is written exactly once, by identical arithmetic.
type realShard3D struct {
	rpx   *RealPlan
	plane *Plan2D
}

// NewRealPlan3D returns a plan for an nx×ny×nz real grid. nx must be even
// (the 1-D real transform packs x pairs into a half-length complex
// transform) and every dimension Smooth; any other grid returns an error,
// which ewald.NewPME turns into its panic and pmd.ValidateDecomp reports
// before any engine is built.
func NewRealPlan3D(nx, ny, nz int) (*RealPlan3D, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("fft: invalid 3-D dims %d×%d×%d", nx, ny, nz)
	}
	if nx%2 != 0 {
		return nil, fmt.Errorf("fft: real 3-D transform needs even x dim, got %d", nx)
	}
	for _, n := range [3]int{nx, ny, nz} {
		if !Smooth(n) {
			return nil, fmt.Errorf("fft: cannot transform %d×%d×%d: %d has a prime factor above %d", nx, ny, nz, n, maxRadix)
		}
	}
	return &RealPlan3D{
		nx: nx, ny: ny, nz: nz, hx: nx/2 + 1,
		rpx:   NewRealPlan(nx),
		plane: NewPlan2D(ny, nz),
	}, nil
}

// Len returns the number of real grid points nx·ny·nz.
func (p *RealPlan3D) Len() int { return p.nx * p.ny * p.nz }

// SpectrumLen returns the half-spectrum storage size (nx/2+1)·ny·nz.
func (p *RealPlan3D) SpectrumLen() int { return p.hx * p.ny * p.nz }

// HX returns the number of stored x frequencies, nx/2+1.
func (p *RealPlan3D) HX() int { return p.hx }

// SetPool attaches a kernel pool: Forward/Inverse shard their x-line
// blocks and y×z planes across it. The decomposition is fixed (strided
// over at most kernels.ShardCount shards) and every output element is
// written once, so pooled transforms are bitwise identical to serial
// ones at any worker count. Per-shard plans and the shard functions are
// made here, and each shard's scratch is sized by its first transform, so
// the hot path stays allocation-free. SetPool(nil) restores the serial
// path.
func (p *RealPlan3D) SetPool(pool *kernels.Pool) {
	p.pool = pool
	if pool == nil || pool.Workers() <= 1 {
		p.shards = nil
		return
	}
	p.shards = make([]*realShard3D, kernels.ShardCount)
	for i := range p.shards {
		p.shards[i] = &realShard3D{rpx: NewRealPlan(p.nx), plane: NewPlan2D(p.ny, p.nz)}
	}
	planeLen := p.ny * p.nz
	lineStep := p.lineShards() * lineBlock
	planeStep := p.planeShards()
	p.fwdLines = func(s int) {
		rpx := p.shards[s].rpx
		for j0 := s * lineBlock; j0 < planeLen; j0 += lineStep {
			rpx.ForwardLines(p.cx, p.cspec, j0, planeLen, min(lineBlock, planeLen-j0))
		}
	}
	p.invLines = func(s int) {
		rpx := p.shards[s].rpx
		for j0 := s * lineBlock; j0 < planeLen; j0 += lineStep {
			rpx.InverseLines(p.cspec, p.cx, j0, planeLen, min(lineBlock, planeLen-j0))
		}
	}
	p.fwdPlanes = func(s int) {
		plane := p.shards[s].plane
		for ix := s; ix < p.hx; ix += planeStep {
			plane.Forward(p.cspec[ix*planeLen : (ix+1)*planeLen])
		}
	}
	p.invPlanes = func(s int) {
		plane := p.shards[s].plane
		for ix := s; ix < p.hx; ix += planeStep {
			plane.Inverse(p.cspec[ix*planeLen : (ix+1)*planeLen])
		}
	}
}

// lineShards and planeShards are the shard counts of the two pooled
// passes: blocks of lineBlock adjacent x lines, and stored planes, each
// dealt round-robin.
func (p *RealPlan3D) lineShards() int {
	return min(len(p.shards), (p.ny*p.nz+lineBlock-1)/lineBlock)
}

func (p *RealPlan3D) planeShards() int { return min(len(p.shards), p.hx) }

// Forward computes the half spectrum of the real grid x:
// spec[(kx·Ny + ky)·Nz + kz] = F(kx, ky, kz) for kx = 0..Nx/2. The input
// grid is left intact. len(x) must be Len() and len(spec) SpectrumLen().
func (p *RealPlan3D) Forward(x []float64, spec []complex128) {
	if len(x) != p.Len() || len(spec) != p.SpectrumLen() {
		panic(fmt.Sprintf("fft: real 3-D forward lengths %d/%d, want %d/%d",
			len(x), len(spec), p.Len(), p.SpectrumLen()))
	}
	planeLen := p.ny * p.nz
	if p.shards != nil {
		// Pooled: shard the line blocks, then the planes. Disjoint writes
		// per shard.
		p.cx, p.cspec = x, spec
		p.pool.Run(p.lineShards(), p.fwdLines)
		p.pool.Run(p.planeShards(), p.fwdPlanes)
		p.cx, p.cspec = nil, nil
		return
	}
	// Real transforms along x, then complex transforms over the stored
	// (contiguous) y×z planes.
	p.rpx.ForwardLines(x, spec, 0, planeLen, planeLen)
	for ix := 0; ix < p.hx; ix++ {
		p.plane.Forward(spec[ix*planeLen : (ix+1)*planeLen])
	}
}

// Inverse reconstructs the real grid from its half spectrum, including the
// full 1/(Nx·Ny·Nz) normalization, so Inverse(Forward(x)) == x. The
// spectrum buffer is used as workspace and destroyed.
func (p *RealPlan3D) Inverse(spec []complex128, x []float64) {
	if len(x) != p.Len() || len(spec) != p.SpectrumLen() {
		panic(fmt.Sprintf("fft: real 3-D inverse lengths %d/%d, want %d/%d",
			len(spec), len(x), p.SpectrumLen(), p.Len()))
	}
	planeLen := p.ny * p.nz
	if p.shards != nil {
		p.cx, p.cspec = x, spec
		p.pool.Run(p.planeShards(), p.invPlanes)
		p.pool.Run(p.lineShards(), p.invLines)
		p.cx, p.cspec = nil, nil
		return
	}
	for ix := 0; ix < p.hx; ix++ {
		p.plane.Inverse(spec[ix*planeLen : (ix+1)*planeLen])
	}
	p.rpx.InverseLines(spec, x, 0, planeLen, planeLen)
}
