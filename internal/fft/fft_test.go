package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomComplex(r *rng.Source, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Range(-1, 1), r.Range(-1, 1))
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Sizes exercised everywhere: powers of two, the paper's grid dimensions
// (80, 36, 48), odd smooth sizes, primes up to maxRadix, and awkward
// composites.
var testSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 25, 27,
	32, 36, 45, 48, 64, 80, 81, 100, 11, 13, 17, 29, 31, 2 * 29, 3 * 31, 23 * 29}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	r := rng.New(1)
	for _, n := range testSizes {
		x := randomComplex(r, n)
		want := NaiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error vs naive DFT = %g", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rng.New(2)
	for _, n := range testSizes {
		p := NewPlan(n)
		x := randomComplex(r, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErr(x, y); e > 1e-10*float64(n) {
			t.Errorf("n=%d: round-trip error = %g", n, e)
		}
	}
}

func TestLinearity(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{16, 36, 31, 80} {
		p := NewPlan(n)
		x := randomComplex(r, n)
		y := randomComplex(r, n)
		alpha := complex(1.7, -0.3)
		// FFT(x + αy)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = x[i] + alpha*y[i]
		}
		p.Forward(lhs)
		// FFT(x) + αFFT(y)
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		p.Forward(fx)
		p.Forward(fy)
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = fx[i] + alpha*fy[i]
		}
		if e := maxErr(lhs, rhs); e > 1e-9*float64(n) {
			t.Errorf("n=%d: linearity violated, err=%g", n, e)
		}
	}
}

func TestParseval(t *testing.T) {
	r := rng.New(4)
	for _, n := range []int{8, 36, 48, 80, 93} {
		p := NewPlan(n)
		x := randomComplex(r, n)
		var inE float64
		for _, v := range x {
			inE += real(v)*real(v) + imag(v)*imag(v)
		}
		p.Forward(x)
		var outE float64
		for _, v := range x {
			outE += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(outE/float64(n)-inE) > 1e-9*inE {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, outE/float64(n), inE)
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a unit impulse at 0 is all ones; at position j it is the
	// twiddle ramp.
	for _, n := range []int{5, 36, 29} {
		p := NewPlan(n)
		x := make([]complex128, n)
		x[0] = 1
		p.Forward(x)
		for k, v := range x {
			if cmplx.Abs(v-1) > 1e-10 {
				t.Fatalf("n=%d impulse: X[%d]=%v", n, k, v)
			}
		}
	}
}

func TestConstantInput(t *testing.T) {
	for _, n := range []int{7, 48, 80} {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = 2.5
		}
		p.Forward(x)
		if cmplx.Abs(x[0]-complex(2.5*float64(n), 0)) > 1e-9*float64(n) {
			t.Fatalf("n=%d: DC bin = %v", n, x[0])
		}
		for k := 1; k < n; k++ {
			if cmplx.Abs(x[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: non-DC bin %d = %v", n, k, x[k])
			}
		}
	}
}

func TestShiftTheoremProperty(t *testing.T) {
	// Circular shift by s multiplies spectrum by exp(-2πi k s / n).
	p := NewPlan(48)
	r := rng.New(5)
	x := randomComplex(r, 48)
	f := func(shiftRaw uint8) bool {
		s := int(shiftRaw) % 48
		shifted := make([]complex128, 48)
		for i := range shifted {
			shifted[i] = x[(i-s+48)%48]
		}
		fx := append([]complex128(nil), x...)
		p.Forward(fx)
		p.Forward(shifted)
		for k := 0; k < 48; k++ {
			phase := cmplx.Exp(complex(0, -2*math.Pi*float64(k*s)/48))
			if cmplx.Abs(shifted[k]-fx[k]*phase) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	p.Forward(make([]complex128, 7))
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		1:  nil,
		2:  {2},
		12: {2, 2, 3},
		80: {2, 2, 2, 2, 5},
		36: {2, 2, 3, 3},
		48: {2, 2, 2, 2, 3},
		97: {97},
		74: {2, 37},
	}
	for n, want := range cases {
		got := factorize(n)
		if len(got) != len(want) {
			t.Fatalf("factorize(%d) = %v", n, got)
		}
		prod := 1
		for i, f := range got {
			if f != want[i] {
				t.Fatalf("factorize(%d) = %v, want %v", n, got, want)
			}
			prod *= f
		}
		if n > 1 && prod != n {
			t.Fatalf("factors of %d do not multiply back", n)
		}
	}
}

func TestOpsPositiveAndMonotone(t *testing.T) {
	prev := int64(0)
	for _, n := range []int{4, 16, 64, 256} {
		ops := NewPlan(n).Ops()
		if ops <= prev {
			t.Fatalf("Ops(%d) = %d not increasing", n, ops)
		}
		prev = ops
	}
}

// A length is transformable exactly when it is Smooth: n ≥ 1 with no
// prime factor above maxRadix. NewPlan panics on any other length.
func TestNewPlanRejectsUnsmoothLengths(t *testing.T) {
	for n, want := range map[int]bool{-4: false, 0: false, 1: true, 31: true, 62: true, 37: false, 74: false, 148: false, 2 * 3 * 5 * 7 * 11 * 13: true, 1369: false} {
		if Smooth(n) != want {
			t.Errorf("Smooth(%d) = %v, want %v", n, !want, want)
		}
		if want {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d) did not panic", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

func Test3DRoundTrip(t *testing.T) {
	r := rng.New(6)
	dims := [][3]int{{4, 4, 4}, {8, 6, 10}, {16, 9, 5}, {20, 9, 12}}
	for _, d := range dims {
		p := NewPlan3D(d[0], d[1], d[2])
		x := randomComplex(r, p.Len())
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErr(x, y); e > 1e-9 {
			t.Errorf("dims %v: round-trip error %g", d, e)
		}
	}
}

func Test3DMatchesNaive(t *testing.T) {
	// Direct triple-sum DFT on a small grid.
	const nx, ny, nz = 3, 4, 5
	r := rng.New(7)
	p := NewPlan3D(nx, ny, nz)
	x := randomComplex(r, p.Len())
	want := make([]complex128, len(x))
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			for kz := 0; kz < nz; kz++ {
				var sum complex128
				for jx := 0; jx < nx; jx++ {
					for jy := 0; jy < ny; jy++ {
						for jz := 0; jz < nz; jz++ {
							theta := -2 * math.Pi * (float64(kx*jx)/nx + float64(ky*jy)/ny + float64(kz*jz)/nz)
							sum += x[(jx*ny+jy)*nz+jz] * cmplx.Exp(complex(0, theta))
						}
					}
				}
				want[(kx*ny+ky)*nz+kz] = sum
			}
		}
	}
	got := append([]complex128(nil), x...)
	p.Forward(got)
	if e := maxErr(got, want); e > 1e-9 {
		t.Fatalf("3-D vs naive: err %g", e)
	}
}

func Test3DPaperGrid(t *testing.T) {
	// The paper's PME mesh: 80×36×48. Round-trip plus Parseval.
	p := NewPlan3D(80, 36, 48)
	r := rng.New(8)
	x := randomComplex(r, p.Len())
	var inE float64
	for _, v := range x {
		inE += real(v)*real(v) + imag(v)*imag(v)
	}
	y := append([]complex128(nil), x...)
	p.Forward(y)
	var outE float64
	for _, v := range y {
		outE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(outE/float64(p.Len())-inE) > 1e-9*inE {
		t.Fatalf("Parseval on paper grid: %g vs %g", outE/float64(p.Len()), inE)
	}
	p.Inverse(y)
	if e := maxErr(x, y); e > 1e-9 {
		t.Fatalf("paper grid round-trip error %g", e)
	}
}

func Test2DRoundTripAndNaive(t *testing.T) {
	const ny, nz = 6, 5
	r := rng.New(9)
	p := NewPlan2D(ny, nz)
	x := randomComplex(r, ny*nz)
	want := make([]complex128, len(x))
	for ky := 0; ky < ny; ky++ {
		for kz := 0; kz < nz; kz++ {
			var sum complex128
			for jy := 0; jy < ny; jy++ {
				for jz := 0; jz < nz; jz++ {
					theta := -2 * math.Pi * (float64(ky*jy)/ny + float64(kz*jz)/nz)
					sum += x[jy*nz+jz] * cmplx.Exp(complex(0, theta))
				}
			}
			want[ky*nz+kz] = sum
		}
	}
	got := append([]complex128(nil), x...)
	p.Forward(got)
	if e := maxErr(got, want); e > 1e-9 {
		t.Fatalf("2-D vs naive: err %g", e)
	}
	p.Inverse(got)
	if e := maxErr(got, x); e > 1e-10 {
		t.Fatalf("2-D round trip err %g", e)
	}
}

func Test3DOpsConsistent(t *testing.T) {
	ops := Ops3D(80, 36, 48)
	if ops <= 0 {
		t.Fatal("non-positive 3-D op count")
	}
	// A 3-D transform must cost more than any single 1-D line.
	if ops < NewPlan(80).Ops() {
		t.Fatal("3-D ops below 1-D ops")
	}
}

func BenchmarkFFT80(b *testing.B) {
	p := NewPlan(80)
	x := randomComplex(rng.New(1), 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT3DPaperGrid(b *testing.B) {
	p := NewPlan3D(80, 36, 48)
	x := randomComplex(rng.New(1), p.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
