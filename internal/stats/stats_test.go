package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Fatalf("median %v", s.Median)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("stddev %v want %v", s.StdDev, want)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.StdDev != 0 || s.Median != 7 {
		t.Fatalf("single: %+v", s)
	}
}

func TestMedianOdd(t *testing.T) {
	if s := Summarize([]float64{9, 1, 5}); s.Median != 5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Keep magnitudes where the mean cannot overflow.
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e12))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Min <= s.Median && s.Median <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
