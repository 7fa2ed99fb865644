// Package fft implements complex discrete Fourier transforms by
// mixed-radix Cooley–Tukey, for every length whose prime factors are at
// most 31 (Smooth); a plan of any other length panics. It provides 1-D,
// 2-D and 3-D plans; the real 3-D plan is the engine under the
// particle-mesh-Ewald grid (80×36×48 in the paper's myoglobin system, which
// factors as 2⁴·5, 2²·3² and 2⁴·3; a solvated box gets its first mesh with
// a larger prime, 148 = 4·37, at about 300 000 atoms).
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

import "fmt"

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
}

// NewPlan returns a plan for transforms of length n. It panics unless
// Smooth(n).
func NewPlan(n int) *Plan {
	if !Smooth(n) {
		panic(fmt.Sprintf("fft: cannot transform length %d: need n ≥ 1 with no prime factor above %d", n, maxRadix))
	}
	return &Plan{t: tablesFor(n)}
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
	p.t.butterflies(s, 1)
	if inverse {
		scale := 1 / float64(n)
		for k, v := range s[:n] {
			x[k] = complex(real(v)*scale, -imag(v)*scale)
		}
	} else {
		copy(x, s)
	}
}

// lines transforms count adjacent strided lines in place — line c,
// c = 0..count−1, is x[base+c+j·stride] for j = 0..N−1: one axis of a
// row-major grid whose faster axes hold count values — lineBlock at a
// time: a permuting load of whole rows — conjugated for the inverse — the
// butterflies, and a store that carries the inverse's conjugate and 1/N.
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
		p.t.butterflies(s, width)
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
// every row, runs the butterflies, and reads output bin k from row k.
func (p *Plan) rows(width int) []complex128 {
	need := p.t.n * width
	if cap(p.scratch) < need {
		p.scratch = make([]complex128, need)
	}
	return p.scratch[:need]
}

// Ops returns the analytic floating-point operation count of one
// transform, Ops(N).
func (p *Plan) Ops() int64 { return Ops(p.t.n) }
