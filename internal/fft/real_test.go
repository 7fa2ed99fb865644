package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func randomReal(r *rng.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Range(-1, 1)
	}
	return x
}

func TestRealForwardMatchesComplexDFT(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{2, 4, 6, 8, 10, 36, 48, 80, 100} {
		x := randomReal(r, n)
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		want := NaiveDFT(cx)

		p := NewRealPlan(n)
		spec := make([]complex128, p.SpectrumLen())
		p.Forward(x, spec)
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - want[k]); d > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, k, spec[k], want[k])
			}
		}
	}
}

func TestRealRoundTrip(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{2, 8, 36, 48, 80} {
		p := NewRealPlan(n)
		x := randomReal(r, n)
		spec := make([]complex128, p.SpectrumLen())
		back := make([]float64, n)
		p.Forward(x, spec)
		p.Inverse(spec, back)
		for i := range x {
			if math.Abs(x[i]-back[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d element %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRealEdgeBinsAreReal(t *testing.T) {
	r := rng.New(3)
	p := NewRealPlan(48)
	x := randomReal(r, 48)
	spec := make([]complex128, p.SpectrumLen())
	p.Forward(x, spec)
	if math.Abs(imag(spec[0])) > 1e-10 || math.Abs(imag(spec[24])) > 1e-10 {
		t.Fatalf("DC/Nyquist bins not real: %v %v", spec[0], spec[24])
	}
}

func TestRealPlanValidation(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("length %d accepted", bad)
				}
			}()
			NewRealPlan(bad)
		}()
	}
	p := NewRealPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("bad buffer lengths accepted")
		}
	}()
	p.Forward(make([]float64, 8), make([]complex128, 3))
}

func BenchmarkRealFFT80(b *testing.B) {
	p := NewRealPlan(80)
	x := randomReal(rng.New(1), 80)
	spec := make([]complex128, p.SpectrumLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x, spec)
	}
}
