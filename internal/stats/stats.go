// Package stats provides the small set of descriptive statistics the
// workload characterization reports (averages with min/max variability
// bars, as in the paper's Fig. 7).
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample set.
type Summary struct {
	N        int
	Mean     float64
	Min, Max float64
	StdDev   float64
	Median   float64
}

// Summarize computes a Summary of xs. An empty input returns the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = 0.5 * (sorted[mid-1] + sorted[mid])
	}
	return s
}
