package figures

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/doe"
	"repro/internal/report"
)

// effectsOf runs Jain's allocation-of-variation analysis (§3.1 cites Jain
// [11] for the methodology) over the rows, each at the factor levels given,
// with the total energy-calculation time as the response variable.
func effectsOf(rows []Row, levels func(Row) map[string]string) (*doe.Analysis, error) {
	obs := make([]doe.Observation, 0, len(rows))
	for _, r := range rows {
		obs = append(obs, doe.Observation{Levels: levels(r), Y: totalWall(r)})
	}
	return doe.Analyze(obs)
}

// factorialEffects analyzes the full factorial design of §3.1.
func factorialEffects(rows []Row) (*doe.Analysis, error) {
	return effectsOf(rows, func(r Row) map[string]string {
		return map[string]string{
			"network":    r.Network(),
			"middleware": r.Cell.Middleware.String(),
			"cpus/node":  fmt.Sprintf("%d", r.CPUs),
		}
	})
}

// renderFactorialEffects is the effects figure: the factorial's rows,
// folded on into the analysis.
func renderFactorialEffects(_ *Suite, w io.Writer, rows []Row, csv bool) error {
	a, err := factorialEffects(rows)
	if err != nil {
		return err
	}
	if csv {
		return csvEffects(w, a)
	}
	return renderEffects(w, a)
}

// renderEffects writes the factor-effect analysis: main effects per level
// and the allocation of variation.
func renderEffects(w io.Writer, a *doe.Analysis) error {
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

// csvEffects writes the factor effects as CSV.
func csvEffects(w io.Writer, a *doe.Analysis) error {
	var cells [][]string
	for _, e := range a.Effects {
		cells = append(cells, []string{
			csvName(e.Factor), csvName(e.Level),
			fmt.Sprintf("%.6f", e.Effect), fmt.Sprintf("%.6f", e.Mean), fmt.Sprintf("%d", e.N),
		})
	}
	return report.CSV(w, []string{"factor", "level", "effect_s", "mean_s", "runs"}, cells)
}
