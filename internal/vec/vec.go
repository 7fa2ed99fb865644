// Package vec provides the 3-component vector arithmetic used by the MD
// engine. Vectors are small value types; all operations return new values
// except the explicitly in-place Accumulate helpers on slices.
package vec

import (
	"fmt"
	"math"
)

// V is a vector in R³.
type V struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V { return V{x, y, z} }

// Zero is the zero vector.
var Zero = V{}

// Add returns a + b.
func (a V) Add(b V) V { return V{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a − b.
func (a V) Sub(b V) V { return V{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a V) Scale(s float64) V { return V{s * a.X, s * a.Y, s * a.Z} }

// Neg returns −a.
func (a V) Neg() V { return V{-a.X, -a.Y, -a.Z} }

// Dot returns a·b.
func (a V) Dot(b V) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns a×b.
func (a V) Cross(b V) V {
	return V{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm2 returns |a|².
func (a V) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Unit returns a/|a|. It panics on the zero vector, which always indicates
// a bug (degenerate geometry) in the caller.
func (a V) Unit() V {
	n := a.Norm()
	if n == 0 {
		panic("vec: Unit of zero vector")
	}
	return a.Scale(1 / n)
}

// Dist returns |a − b|.
func Dist(a, b V) float64 { return a.Sub(b).Norm() }

// Dist2 returns |a − b|².
func Dist2(a, b V) float64 { return a.Sub(b).Norm2() }

// String implements fmt.Stringer.
func (a V) String() string { return fmt.Sprintf("(%.6g, %.6g, %.6g)", a.X, a.Y, a.Z) }

// Angle returns the angle in radians between vectors a and b, in [0, π].
func Angle(a, b V) float64 {
	// Use the atan2 form: numerically stable near 0 and π, unlike acos.
	return math.Atan2(a.Cross(b).Norm(), a.Dot(b))
}

// Sum returns the sum of the vectors in s.
func Sum(s []V) V {
	var t V
	for _, v := range s {
		t = t.Add(v)
	}
	return t
}

// AddTo accumulates src into dst element-wise. The slices must have equal
// length.
func AddTo(dst, src []V) {
	if len(dst) != len(src) {
		panic("vec: AddTo length mismatch")
	}
	for i, v := range src {
		dst[i] = dst[i].Add(v)
	}
}

// Fill sets every element of s to v.
func Fill(s []V, v V) {
	for i := range s {
		s[i] = v
	}
}

// MaxNormDiff returns the largest |a[i]−b[i]| over all i. No program calls
// it; it is the comparator of the force-array equivalence tests in md and
// pmd.
func MaxNormDiff(a, b []V) float64 {
	if len(a) != len(b) {
		panic("vec: MaxNormDiff length mismatch")
	}
	var m float64
	for i := range a {
		if d := Dist(a[i], b[i]); d > m {
			m = d
		}
	}
	return m
}
