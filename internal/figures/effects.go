package figures

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/doe"
	"repro/internal/pmd"
	"repro/internal/report"
)

// FactorAnalysis runs Jain's allocation-of-variation analysis (§3.1 cites
// Jain [11] for the methodology) over the full factorial design, using the
// total energy-calculation time as the response variable.
func (s *Suite) FactorAnalysis() (*doe.Analysis, error) { return RunPlan(s, s.EffectsPlan()) }

// EffectsPlan is the factor analysis as a plan: the factorial's cells,
// folded on into the analysis.
func (s *Suite) EffectsPlan() Plan[*doe.Analysis] {
	factorial := s.FactorialPlan()
	return Plan[*doe.Analysis]{Cells: factorial.Cells, Fold: func(results []*pmd.Result) (*doe.Analysis, error) {
		rows, err := factorial.Fold(results)
		if err != nil {
			return nil, err
		}
		obs := make([]doe.Observation, 0, len(rows))
		for _, r := range rows {
			obs = append(obs, doe.Observation{
				Levels: map[string]string{
					"network":    r.Network,
					"middleware": r.Middleware,
					"cpus/node":  fmt.Sprintf("%d", r.CPUs),
				},
				Y: r.Total,
			})
		}
		return doe.Analyze(obs)
	}}
}

// RenderEffects writes the factor-effect analysis: main effects per level
// and the allocation of variation.
func RenderEffects(w io.Writer, a *doe.Analysis) error {
	fmt.Fprintln(w, "Factorial analysis (Jain) — which platform factor matters?")
	fmt.Fprintf(w, "grand mean of the total energy-calculation time: %.3f s\n\n", a.GrandMean)

	var cells [][]string
	for _, e := range a.Effects {
		cells = append(cells, []string{
			e.Factor, e.Level,
			fmt.Sprintf("%+.3f", e.Effect),
			report.Seconds(e.Mean),
			fmt.Sprintf("%d", e.N),
		})
	}
	if err := report.Table(w, []string{"factor", "level", "effect (s)", "mean (s)", "runs"}, cells); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nAllocation of variation:")
	factors := make([]string, 0, len(a.MainSS))
	for f := range a.MainSS {
		factors = append(factors, f)
	}
	sort.Slice(factors, func(i, j int) bool { return a.MainSS[factors[i]] > a.MainSS[factors[j]] })
	cells = cells[:0]
	for _, f := range factors {
		cells = append(cells, []string{
			f,
			report.Pct(100 * a.VariationExplained(f)),
			report.Bar(a.VariationExplained(f), 1, 30),
		})
	}
	var interTotal float64
	for _, in := range a.Interact {
		interTotal += in.SumSquares
	}
	if a.SST > 0 {
		cells = append(cells, []string{"two-factor interactions", report.Pct(100 * interTotal / a.SST), ""})
		cells = append(cells, []string{"residual", report.Pct(100 * a.Residual / a.SST), ""})
	}
	if err := report.Table(w, []string{"source", "variation", ""}, cells); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndominant factor: %s — the paper's conclusion that the software\n", a.DominantFactor())
	fmt.Fprintln(w, "infrastructure matters more than the raw hardware is this number.")
	return nil
}

// CSVEffects writes the factor effects as CSV.
func CSVEffects(w io.Writer, a *doe.Analysis) error {
	var cells [][]string
	for _, e := range a.Effects {
		cells = append(cells, []string{
			csvName(e.Factor), csvName(e.Level),
			fmt.Sprintf("%.6f", e.Effect), fmt.Sprintf("%.6f", e.Mean), fmt.Sprintf("%d", e.N),
		})
	}
	return report.CSV(w, []string{"factor", "level", "effect_s", "mean_s", "runs"}, cells)
}
