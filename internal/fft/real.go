package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// RealPlan computes DFTs of real sequences of even length n through one
// complex transform of length n/2 plus an untangling pass — the transform
// CHARMM's PME uses on its charge grid (half the work and half the wire
// volume of a complex transform).
type RealPlan struct {
	n    int
	half *Plan
	w    []complex128 // w[k] = exp(−2πi k / n), k = 0..n/2
}

// NewRealPlan returns a plan for real transforms of even length n ≥ 2.
func NewRealPlan(n int) *RealPlan {
	if n < 2 || n%2 != 0 {
		panic(fmt.Sprintf("fft: real transform length %d must be even and ≥ 2", n))
	}
	p := &RealPlan{n: n, half: NewPlan(n / 2)}
	p.w = make([]complex128, n/2+1)
	for k := range p.w {
		p.w[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	return p
}

// SpectrumLen returns the half-spectrum length n/2+1.
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// Forward computes the half spectrum X[0..n/2] of the real input x:
// X[k] = Σ_j x[j]·exp(−2πi jk/n). The remaining bins follow from
// X[n−k] = conj(X[k]). spec must have length SpectrumLen().
func (p *RealPlan) Forward(x []float64, spec []complex128) {
	if len(x) != p.n || len(spec) != p.n/2+1 {
		panic(fmt.Sprintf("fft: real forward lengths %d/%d for n=%d", len(x), len(spec), p.n))
	}
	p.forwardLines(x, spec, 0, 1, 1)
}

// Inverse reconstructs the real sequence from its half spectrum,
// including the 1/n normalization, so Inverse(Forward(x)) == x. The
// imaginary parts of spec[0] and spec[n/2] are ignored (they are zero for
// any spectrum of a real sequence).
func (p *RealPlan) Inverse(spec []complex128, x []float64) {
	if len(x) != p.n || len(spec) != p.n/2+1 {
		panic(fmt.Sprintf("fft: real inverse lengths %d/%d for n=%d", len(spec), len(x), p.n))
	}
	p.inverseLines(spec, x, 0, 1, 1)
}

// forwardLines computes the half spectra of count adjacent strided real
// lines: line c is x[base+c+j·stride], j = 0..n−1, and its spectrum goes
// to spec[base+c+k·stride], k = 0..n/2. Even and odd samples load as the
// real and imaginary parts of the half-length complex transform; the
// untangling pass is its store.
func (p *RealPlan) forwardLines(x []float64, spec []complex128, base, stride, count int) {
	m := p.n / 2
	for c0 := 0; c0 < count; c0 += lineBlock {
		width := min(lineBlock, count-c0)
		s := p.half.rows(width)
		at := base + c0
		for pos, src := range p.half.t.perm {
			row := s[pos*width : (pos+1)*width]
			even := x[at+2*int(src)*stride:][:width]
			odd := x[at+(2*int(src)+1)*stride:][:width]
			for c := range row {
				row[c] = complex(even[c], odd[c])
			}
		}
		p.half.run(s, width)
		for k := 0; k <= m; k++ {
			// Bin m of the half transform is bin 0 again.
			ks, kt := k, m-k
			if ks == m {
				ks = 0
			}
			if kt == m {
				kt = 0
			}
			zs := s[ks*width:][:width]
			zt := s[kt*width:][:width]
			out := spec[at+k*stride:][:width]
			wk := p.w[k]
			for c := range out {
				u, v := zs[c], cmplx.Conj(zt[c])
				out[c] = 0.5*(u+v) - 0.5i*wk*(u-v)
			}
		}
	}
}

// inverseLines is forwardLines' mirror: the re-tangling pass is the load
// (conjugated, as the inverse of the half transform wants it) and the
// 1/(n/2) scale rides on the store.
func (p *RealPlan) inverseLines(spec []complex128, x []float64, base, stride, count int) {
	m := p.n / 2
	scale := 1 / float64(m)
	for c0 := 0; c0 < count; c0 += lineBlock {
		width := min(lineBlock, count-c0)
		s := p.half.rows(width)
		at := base + c0
		for pos, src := range p.half.t.perm {
			k := int(src)
			row := s[pos*width : (pos+1)*width]
			sa := spec[at+k*stride:][:width]
			sb := spec[at+(m-k)*stride:][:width]
			// W^{−k} = conj(w[k]).
			wk := cmplx.Conj(p.w[k])
			for c := range row {
				a, b := sa[c], cmplx.Conj(sb[c])
				row[c] = cmplx.Conj(0.5 * ((a + b) + 1i*wk*(a-b)))
			}
		}
		p.half.run(s, width)
		for k := 0; k < m; k++ {
			row := s[k*width : (k+1)*width]
			even := x[at+2*k*stride:][:width]
			odd := x[at+(2*k+1)*stride:][:width]
			for c, v := range row {
				even[c] = real(v) * scale
				odd[c] = -imag(v) * scale
			}
		}
	}
}

// Ops returns the analytic flop count (half transform + untangling).
func (p *RealPlan) Ops() int64 {
	return p.half.Ops() + int64(8*(p.n/2+1))
}
