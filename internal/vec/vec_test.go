package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3)
	b := New(-4, 5, 0.5)
	if got := a.Add(b); got != New(-3, 7, 3.5) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(5, -3, 2.5) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Add(b).Sub(b); !near(Dist(got, a), 0, eps) {
		t.Fatalf("Add then Sub not identity: %v", got)
	}
}

func TestScaleNeg(t *testing.T) {
	a := New(1, -2, 4)
	if got := a.Scale(-1); got != a.Neg() {
		t.Fatalf("Scale(-1)=%v Neg=%v", got, a.Neg())
	}
	if got := a.Scale(0); got != Zero {
		t.Fatalf("Scale(0)=%v", got)
	}
	if got := a.Scale(2.5); got != New(2.5, -5, 10) {
		t.Fatalf("Scale(2.5)=%v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if x.Cross(y) != z {
		t.Fatalf("x cross y = %v", x.Cross(y))
	}
	if y.Cross(z) != x || z.Cross(x) != y {
		t.Fatal("cyclic cross products wrong")
	}
	if x.Dot(y) != 0 || x.Dot(x) != 1 {
		t.Fatal("dot products wrong")
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := New(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return near(c.Dot(a)/scale, 0, 1e-9) && near(c.Dot(b)/scale, 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorm(t *testing.T) {
	if got := New(3, 4, 0).Norm(); !near(got, 5, eps) {
		t.Fatalf("Norm = %v", got)
	}
	if got := New(1, 1, 1).Norm2(); !near(got, 3, eps) {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestUnit(t *testing.T) {
	u := New(0, -7, 0).Unit()
	if !near(u.Norm(), 1, eps) || !near(u.Y, -1, eps) {
		t.Fatalf("Unit = %v", u)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unit of zero vector did not panic")
		}
	}()
	Zero.Unit()
}

func TestDist(t *testing.T) {
	a := New(0, 0, 0)
	b := New(2, 0, 0)
	if !near(Dist(a, b), 2, eps) || !near(Dist2(a, b), 4, eps) {
		t.Fatal("Dist wrong")
	}
}

func TestAngle(t *testing.T) {
	cases := []struct {
		a, b V
		want float64
	}{
		{New(1, 0, 0), New(0, 1, 0), math.Pi / 2},
		{New(1, 0, 0), New(1, 0, 0), 0},
		{New(1, 0, 0), New(-1, 0, 0), math.Pi},
		{New(1, 0, 0), New(1, 1, 0), math.Pi / 4},
	}
	for _, c := range cases {
		if got := Angle(c.a, c.b); !near(got, c.want, 1e-12) {
			t.Errorf("Angle(%v,%v) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFill(t *testing.T) {
	dst := []V{New(1, 1, 1), New(2, 2, 2), Zero}
	Fill(dst, Zero)
	for _, v := range dst {
		if v != Zero {
			t.Fatal("Fill did not zero")
		}
	}
}

func TestMaxNormDiff(t *testing.T) {
	a := []V{Zero, New(1, 0, 0)}
	b := []V{New(0, 0, 0.5), New(1, 0, 0)}
	if got := MaxNormDiff(a, b); !near(got, 0.5, eps) {
		t.Fatalf("MaxNormDiff = %v", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"MaxNormDiff": func() { MaxNormDiff(make([]V, 1), make([]V, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}
