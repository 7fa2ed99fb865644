package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// recPlan is the recursive mixed-radix transform the planned butterflies
// replaced, kept as the reference the property test compares bits against:
// decimation in time over the smallest remaining factor, recursing to
// length 1, with the twiddle index (q·kk mod n)·tw computed per multiply.
type recPlan struct {
	n       int
	factors []int
	w       []complex128
	scratch []complex128
}

func newRecPlan(n int) *recPlan {
	return &recPlan{n: n, factors: factorize(n), w: twiddles(n), scratch: make([]complex128, n)}
}

func (p *recPlan) transform(x []complex128, inverse bool) {
	if p.n == 1 {
		return
	}
	if inverse {
		for i := range x {
			x[i] = complex(real(x[i]), -imag(x[i]))
		}
	}
	p.rec(x, p.scratch, p.n, 1, 1, p.factors)
	if inverse {
		scale := 1 / float64(p.n)
		for i := range x {
			x[i] = complex(real(x[i])*scale, -imag(x[i])*scale)
		}
	}
}

// rec computes the length-n DFT of the elements x[0], x[stride],
// x[2·stride], … writing the result densely into x[0..n). tw is the step
// into the twiddle table for this recursion level.
func (p *recPlan) rec(x, tmp []complex128, n, stride, tw int, factors []int) {
	if n == 1 {
		return
	}
	r := factors[0]
	m := n / r
	if m == 1 {
		p.smallDFT(x, tmp, r, stride, tw)
		return
	}
	for q := 0; q < r; q++ {
		p.rec(x[q*stride:], tmp, m, stride*r, tw*r, factors[1:])
	}
	var acc [maxRadix]complex128
	for k := 0; k < m; k++ {
		for q := 0; q < r; q++ {
			acc[q] = x[(q+k*r)*stride]
		}
		for out := 0; out < r; out++ {
			kk := out*m + k
			sum := acc[0]
			for q := 1; q < r; q++ {
				idx := (q * kk % n) * tw
				sum += p.w[idx] * acc[q]
			}
			tmp[kk] = sum
		}
	}
	for j := 0; j < n; j++ {
		x[j*stride] = tmp[j]
	}
}

// smallDFT computes a direct DFT of prime length r over strided data.
func (p *recPlan) smallDFT(x, tmp []complex128, r, stride, tw int) {
	var in [maxRadix]complex128
	for j := 0; j < r; j++ {
		in[j] = x[j*stride]
	}
	for k := 0; k < r; k++ {
		sum := in[0]
		for j := 1; j < r; j++ {
			idx := (j * k % r) * tw
			sum += p.w[idx] * in[j]
		}
		tmp[k] = sum
	}
	for k := 0; k < r; k++ {
		x[k*stride] = tmp[k]
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// The planned transform forms every output from the same products in the
// same order as the recursion, so on 300 random smooth lengths its
// Forward and Inverse outputs have the recursion's exact bits — as a
// single line and as one of a block of strided lines.
func TestPlannedMatchesRecursiveBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit comparison is pinned on amd64 only")
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(511)
		for !Smooth(n) {
			n = 2 + rng.Intn(511)
		}
		plan, ref := NewPlan(n), newRecPlan(n)
		for _, inverse := range []bool{false, true} {
			// lineBlock+3 lines: one full block and a ragged one.
			const count = lineBlock + 3
			grid := make([]complex128, n*count)
			for i := range grid {
				grid[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := make([][]complex128, count)
			for c := range want {
				line := make([]complex128, n)
				for j := range line {
					line[j] = grid[j*count+c]
				}
				ref.transform(line, inverse)
				want[c] = line
			}
			single := make([]complex128, n)
			for j := range single {
				single[j] = grid[j*count]
			}
			if inverse {
				plan.Inverse(single)
				plan.lines(grid, 0, count, count, true)
			} else {
				plan.Forward(single)
				plan.lines(grid, 0, count, count, false)
			}
			for j := 0; j < n; j++ {
				if !sameBits(single[j], want[0][j]) {
					t.Fatalf("n=%d inverse=%v: bin %d = %v, recursion %v", n, inverse, j, single[j], want[0][j])
				}
				for c := 0; c < count; c++ {
					if got := grid[j*count+c]; !sameBits(got, want[c][j]) {
						t.Fatalf("n=%d inverse=%v line %d: bin %d = %v, recursion %v", n, inverse, c, j, got, want[c][j])
					}
				}
			}
		}
	}
}

// The 1-D whole-sequence transforms and the O(n²) definition. Production
// transforms blocks of strided lines (lines) and the real plan's
// line passes; the tests and the bits golden drive a plan through these.

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

// SpectrumLen returns the half-spectrum length n/2+1.
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// Forward computes the half spectrum X[0..n/2] of the real input x:
// X[k] = Σ_j x[j]·exp(−2πi jk/n). The remaining bins follow from
// X[n−k] = conj(X[k]). spec must have length SpectrumLen().
func (p *RealPlan) Forward(x []float64, spec []complex128) {
	if len(x) != p.n || len(spec) != p.n/2+1 {
		panic(fmt.Sprintf("fft: real forward lengths %d/%d for n=%d", len(x), len(spec), p.n))
	}
	p.ForwardLines(x, spec, 0, 1, 1)
}

// Inverse reconstructs the real sequence from its half spectrum,
// including the 1/n normalization, so Inverse(Forward(x)) == x. The
// imaginary parts of spec[0] and spec[n/2] are ignored (they are zero for
// any spectrum of a real sequence).
func (p *RealPlan) Inverse(spec []complex128, x []float64) {
	if len(x) != p.n || len(spec) != p.n/2+1 {
		panic(fmt.Sprintf("fft: real inverse lengths %d/%d for n=%d", len(spec), len(x), p.n))
	}
	p.InverseLines(spec, x, 0, 1, 1)
}

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
