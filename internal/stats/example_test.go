package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

func ExampleSummarize() {
	s := stats.Summarize([]float64{10, 20, 60})
	fmt.Printf("mean %.0f, min %.0f, max %.0f\n", s.Mean, s.Min, s.Max)
	// Output:
	// mean 30, min 10, max 60
}
