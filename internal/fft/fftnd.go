package fft

import "fmt"

// Plan3D computes forward/inverse 3-D DFTs on row-major data indexed
// [x][y][z], i.e. element (ix, iy, iz) lives at (ix·Ny + iy)·Nz + iz.
type Plan3D struct {
	nx, ny, nz int
	px         *Plan
	plane      *Plan2D // the y×z planes
}

// NewPlan3D returns a 3-D plan for an nx×ny×nz grid.
func NewPlan3D(nx, ny, nz int) *Plan3D {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("fft: invalid 3-D dims %d×%d×%d", nx, ny, nz))
	}
	return &Plan3D{nx: nx, ny: ny, nz: nz, px: NewPlan(nx), plane: NewPlan2D(ny, nz)}
}

// Len returns the total number of grid points.
func (p *Plan3D) Len() int { return p.nx * p.ny * p.nz }

// Forward computes the in-place forward 3-D DFT.
func (p *Plan3D) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse 3-D DFT with 1/(Nx·Ny·Nz)
// normalization.
func (p *Plan3D) Inverse(x []complex128) { p.transform(x, true) }

func (p *Plan3D) transform(x []complex128, inverse bool) {
	if len(x) != p.Len() {
		panic(fmt.Sprintf("fft: data length %d != %d", len(x), p.Len()))
	}
	// Along z and y plane by plane, then along x: ny·nz adjacent lines of
	// stride ny·nz.
	plane := p.ny * p.nz
	for off := 0; off < len(x); off += plane {
		p.plane.transform(x[off:off+plane], inverse)
	}
	p.px.lines(x, 0, plane, plane, inverse)
}

// Plan2D computes forward/inverse 2-D DFTs on row-major ny×nz data
// (element (iy, iz) at iy·Nz + iz). The slab-decomposed parallel FFT uses
// it for the per-plane transforms.
type Plan2D struct {
	ny, nz int
	py, pz *Plan
}

// NewPlan2D returns a 2-D plan for an ny×nz grid.
func NewPlan2D(ny, nz int) *Plan2D {
	if ny < 1 || nz < 1 {
		panic(fmt.Sprintf("fft: invalid 2-D dims %d×%d", ny, nz))
	}
	return &Plan2D{ny: ny, nz: nz, py: NewPlan(ny), pz: NewPlan(nz)}
}

// Forward computes the in-place forward 2-D DFT.
func (p *Plan2D) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse 2-D DFT with 1/(Ny·Nz) scaling.
func (p *Plan2D) Inverse(x []complex128) { p.transform(x, true) }

func (p *Plan2D) transform(x []complex128, inverse bool) {
	if len(x) != p.ny*p.nz {
		panic(fmt.Sprintf("fft: data length %d != %d", len(x), p.ny*p.nz))
	}
	// Along z the lines are contiguous; along y they are nz adjacent
	// lines of stride nz.
	for off := 0; off < len(x); off += p.nz {
		p.pz.line(x[off:], inverse)
	}
	p.py.lines(x, 0, p.nz, p.nz, inverse)
}

// Ops returns the analytic flop count of one 2-D transform.
func (p *Plan2D) Ops() int64 {
	return int64(p.nz)*p.py.Ops() + int64(p.ny)*p.pz.Ops()
}
