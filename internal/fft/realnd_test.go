package fft

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randRealGrid(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// full3D computes the reference complex 3-D spectrum of a real grid.
func full3D(x []float64, nx, ny, nz int) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	NewPlan3D(nx, ny, nz).Forward(cx)
	return cx
}

func TestRealPlan3DMatchesComplexPlan(t *testing.T) {
	cases := [][3]int{
		{80, 36, 48}, // the paper's PME mesh
		{8, 6, 10},
		{2, 1, 1},
		{4, 5, 3},
		{6, 7, 7},   // odd y/z dims
		{14, 31, 9}, // y through the generic radix loop (31 = maxRadix)
		{62, 5, 4},  // x/2 = 31 through the generic radix loop
	}
	for _, c := range cases {
		nx, ny, nz := c[0], c[1], c[2]
		p, err := NewRealPlan3D(nx, ny, nz)
		if err != nil {
			t.Fatalf("NewRealPlan3D(%d,%d,%d): %v", nx, ny, nz, err)
		}
		x := randRealGrid(nx*ny*nz, int64(nx*1000+ny*10+nz))
		want := full3D(x, nx, ny, nz)
		spec := make([]complex128, p.SpectrumLen())
		p.Forward(x, spec)

		scale := 0.0
		for _, v := range want {
			if a := cmplxAbs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-11 * (1 + scale)
		for ix := 0; ix < p.HX(); ix++ {
			for iy := 0; iy < ny; iy++ {
				for iz := 0; iz < nz; iz++ {
					got := spec[(ix*ny+iy)*nz+iz]
					ref := want[(ix*ny+iy)*nz+iz]
					if cmplxAbs(got-ref) > tol {
						t.Fatalf("%d×%d×%d spec[%d,%d,%d] = %v, want %v",
							nx, ny, nz, ix, iy, iz, got, ref)
					}
				}
			}
		}
	}
}

// TestRealPlan3DHermitianReconstruction checks that the discarded
// redundant half of the spectrum really is the conjugate mirror of the
// stored half — the identity the PME energy accumulation relies on.
func TestRealPlan3DHermitianReconstruction(t *testing.T) {
	nx, ny, nz := 12, 5, 6
	p, err := NewRealPlan3D(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	x := randRealGrid(nx*ny*nz, 7)
	want := full3D(x, nx, ny, nz)
	spec := make([]complex128, p.SpectrumLen())
	p.Forward(x, spec)
	for ix := p.HX(); ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				mx, my, mz := nx-ix, (ny-iy)%ny, (nz-iz)%nz
				s := spec[(mx*ny+my)*nz+mz]
				mirror := complex(real(s), -imag(s))
				ref := want[(ix*ny+iy)*nz+iz]
				if cmplxAbs(mirror-ref) > 1e-10 {
					t.Fatalf("Hermitian mirror (%d,%d,%d) = %v, want %v", ix, iy, iz, mirror, ref)
				}
			}
		}
	}
}

func TestRealPlan3DRoundTrip(t *testing.T) {
	for _, c := range [][3]int{{80, 36, 48}, {10, 9, 4}, {62, 31, 9}} {
		nx, ny, nz := c[0], c[1], c[2]
		p, err := NewRealPlan3D(nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		x := randRealGrid(nx*ny*nz, 42)
		orig := append([]float64(nil), x...)
		spec := make([]complex128, p.SpectrumLen())
		p.Forward(x, spec)
		for i, v := range x {
			if v != orig[i] {
				t.Fatalf("%v: Forward modified its input at %d", c, i)
			}
		}
		back := make([]float64, len(x))
		p.Inverse(spec, back)
		for i := range back {
			if math.Abs(back[i]-orig[i]) > 1e-11*(1+math.Abs(orig[i])) {
				t.Fatalf("%v: roundtrip[%d] = %g, want %g", c, i, back[i], orig[i])
			}
		}
	}
}

func TestRealPlan3DRejectsOddX(t *testing.T) {
	if _, err := NewRealPlan3D(37, 36, 48); err == nil {
		t.Fatal("odd x dim must be rejected")
	}
	if _, err := NewRealPlan3D(0, 4, 4); err == nil {
		t.Fatal("zero dim must be rejected")
	}
	// So is a dimension with a prime factor above maxRadix, on any axis.
	for _, d := range [][3]int{{148, 148, 148}, {74, 36, 48}, {80, 37, 48}, {80, 36, 41}} {
		if _, err := NewRealPlan3D(d[0], d[1], d[2]); err == nil || !strings.Contains(err.Error(), "prime factor above 31") {
			t.Errorf("NewRealPlan3D%v: err = %v, want the prime-factor error", d, err)
		}
	}
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}
