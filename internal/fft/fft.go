// Package fft implements complex discrete Fourier transforms of arbitrary
// length: mixed-radix Cooley–Tukey for smooth sizes and Bluestein's chirp-z
// algorithm for sizes with large prime factors. It provides 1-D, 2-D and 3-D
// plans; the 3-D plan is the engine under the particle-mesh-Ewald grid
// (80×36×48 in the paper's myoglobin system, which factors as 2⁴·5, 2²·3²
// and 2⁴·3).
//
// A plan is two things. Its tables — the input permutation and one twiddle
// table per butterfly level (tables.go) — are immutable, depend on the
// length alone, and are shared by every plan of that length in the process.
// Its scratch, the rows the butterflies run over, is private and sized on
// first use; because of it a Plan is NOT safe for concurrent use (each
// simulated rank, and each shard of a pooled transform, owns its own).
//
// A transform is one permuting load into the scratch, in-place butterfly
// passes over contiguous blocks (butterfly.go), and one store. The
// multi-dimensional plans never gather single strided lines: they hand the
// 1-D plan a block of adjacent lines, which it loads, transforms side by
// side and stores as contiguous runs. The inverse's conjugations and 1/n
// scale ride on those loads and stores.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// lineBlock is the number of adjacent lines a plan transforms side by side.
// Eight complex128 values are two cache lines per row: the strided loads and
// stores move whole lines and the column loops amortise the twiddle loads.
// Widths of 8, 16 and 32 measure the same on the PME mesh, so the smallest
// scratch wins (10 KiB for the longest dimension, 80 rows).
const lineBlock = 8

// Plan computes forward and inverse DFTs of length N.
type Plan struct {
	t       *tables
	scratch []complex128 // rows under transformation; grown on first use
	conv    *Plan        // Bluestein only: the power-of-two convolution plan
}

// NewPlan returns a plan for transforms of length n ≥ 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{t: tablesFor(n)}
	if c := p.t.chirp; c != nil {
		p.conv = NewPlan(c.m)
	}
	return p
}

// Forward computes the in-place forward DFT of x (len(x) must equal N):
// X[k] = Σ_j x[j]·exp(-2πi jk/N).
func (p *Plan) Forward(x []complex128) {
	p.checkLen(x)
	p.line(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N
// normalization, so that Inverse(Forward(x)) == x.
func (p *Plan) Inverse(x []complex128) {
	p.checkLen(x)
	p.line(x, true)
}

func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.t.n {
		panic(fmt.Sprintf("fft: length %d does not match plan length %d", len(x), p.t.n))
	}
}

// ForwardLines transforms count adjacent strided lines in place: line c,
// c = 0..count−1, is x[base+c+j·stride] for j = 0..N−1. It is the transform
// of one axis of a row-major grid whose faster axes hold count values, at
// the speed of contiguous data.
func (p *Plan) ForwardLines(x []complex128, base, stride, count int) {
	p.lines(x, base, stride, count, false)
}

// InverseLines is ForwardLines for the inverse transform, 1/N included.
func (p *Plan) InverseLines(x []complex128, base, stride, count int) {
	p.lines(x, base, stride, count, true)
}

// line is lines for the one contiguous line x[0..N), without the column
// loops: the z axis of every grid goes through it.
func (p *Plan) line(x []complex128, inverse bool) {
	n := p.t.n
	if n == 1 {
		return
	}
	x = x[:n]
	s := p.rows(1)
	if inverse {
		for pos, src := range p.t.perm {
			v := x[src]
			s[pos] = complex(real(v), -imag(v))
		}
	} else {
		for pos, src := range p.t.perm {
			s[pos] = x[src]
		}
	}
	p.run(s, 1)
	if inverse {
		scale := 1 / float64(n)
		for k, v := range s[:n] {
			x[k] = complex(real(v)*scale, -imag(v)*scale)
		}
	} else {
		copy(x, s)
	}
}

// lines transforms count adjacent strided lines (see ForwardLines),
// lineBlock at a time: a permuting load of whole rows — conjugated for the
// inverse — the butterflies, and a store that carries the inverse's
// conjugate and 1/N.
func (p *Plan) lines(x []complex128, base, stride, count int, inverse bool) {
	n := p.t.n
	if n == 1 {
		return
	}
	scale := 1 / float64(n)
	for c0 := 0; c0 < count; c0 += lineBlock {
		width := min(lineBlock, count-c0)
		s := p.rows(width)
		at := base + c0
		for pos, src := range p.t.perm {
			row := s[pos*width : (pos+1)*width]
			in := x[at+int(src)*stride:][:width]
			if inverse {
				for c, v := range in {
					row[c] = complex(real(v), -imag(v))
				}
			} else {
				copy(row, in)
			}
		}
		p.run(s, width)
		for k := 0; k < n; k++ {
			row := s[k*width : (k+1)*width]
			out := x[at+k*stride:][:width]
			if inverse {
				for c, v := range row {
					out[c] = complex(real(v)*scale, -imag(v)*scale)
				}
			} else {
				copy(out, row)
			}
		}
	}
}

// rows returns the scratch for `width` side-by-side transforms: row
// p.t.perm-position pos is s[pos·width : (pos+1)·width]. A caller fills
// every row, calls run, and reads output bin k from row k.
func (p *Plan) rows(width int) []complex128 {
	need := p.t.n * width
	if c := p.t.chirp; c != nil {
		need = c.m * width
	}
	if cap(p.scratch) < need {
		p.scratch = make([]complex128, need)
	}
	return p.scratch[:need]
}

// run computes the forward DFT of the loaded rows in place.
func (p *Plan) run(s []complex128, width int) {
	c := p.t.chirp
	if c == nil {
		p.t.butterflies(s, width)
		return
	}
	// Bluestein: chirp, convolve with the conjugate chirp through the
	// power-of-two plan, chirp again. Rows past n are the zero padding.
	scaleRows(s, c.a, width)
	pad := s[p.t.n*width:]
	for i := range pad {
		pad[i] = 0
	}
	p.conv.lines(s, 0, width, width, false)
	scaleRows(s, c.bf, width)
	p.conv.lines(s, 0, width, width, true)
	scaleRows(s, c.a, width)
}

// scaleRows multiplies row j of s by coef[j].
func scaleRows(s, coef []complex128, width int) {
	for j, a := range coef {
		row := s[j*width : (j+1)*width]
		for i := range row {
			row[i] *= a
		}
	}
}

// Ops returns the analytic floating-point operation count of one
// transform, Ops(N).
func (p *Plan) Ops() int64 { return Ops(p.t.n) }

// NaiveDFT computes the forward DFT by the O(n²) definition. It is the
// ground truth for tests.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			theta := -2 * math.Pi * float64(j*k%n) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, theta))
		}
		out[k] = sum
	}
	return out
}
