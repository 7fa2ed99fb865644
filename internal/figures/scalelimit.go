package figures

import (
	"fmt"
	"io"

	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/report"
)

// ScaleLimitRow is one (network, processors) cell of the §5 extrapolation.
type ScaleLimitRow struct {
	Network           string
	P                 int
	ClassicSpeedup    float64
	PMESpeedup        float64
	TotalSpeedup      float64
	ParallelEfficient bool // total efficiency ≥ 50 %
}

// ScaleLimitPlan is the scalability-limit table as a plan: it extends the
// processor sweep to 16 and 32 ranks and reports per-phase speedups — the
// paper's closing claim is that the classic calculation has enough
// parallelism for 32–64 processor clusters while PME stops paying at about
// a quarter of that unless the interconnect is a low-overhead SAN.
func (s *Suite) ScaleLimitPlan() Plan[[]ScaleLimitRow] {
	cells := s.sweep(netmodel.All(), []int{1, 2, 4, 8, 16, 32})
	return Plan[[]ScaleLimitRow]{Cells: cells, Fold: func(results []*pmd.Result) ([]ScaleLimitRow, error) {
		var out []ScaleLimitRow
		var cSeq, pSeq float64 // each network's sweep starts at its p = 1 cell
		for i, res := range results {
			c, pm := res.PhaseTotals()
			if res.P == 1 {
				cSeq, pSeq = c.Wall, pm.Wall
			}
			total := c.Wall + pm.Wall
			row := ScaleLimitRow{
				Network:        cells[i].Cluster.Net.Name,
				P:              res.P,
				ClassicSpeedup: cSeq / c.Wall,
				PMESpeedup:     pSeq / pm.Wall,
				TotalSpeedup:   (cSeq + pSeq) / total,
			}
			row.ParallelEfficient = row.TotalSpeedup/float64(res.P) >= 0.5
			out = append(out, row)
		}
		return out, nil
	}}
}

// RenderScaleLimit writes the scalability-limit table.
func RenderScaleLimit(w io.Writer, rows []ScaleLimitRow) error {
	fmt.Fprintln(w, "Scalability limit (§5) — per-phase speedups out to 32 processors")
	var cells [][]string
	for _, r := range rows {
		mark := ""
		if r.ParallelEfficient {
			mark = "≥50% efficient"
		}
		cells = append(cells, []string{
			r.Network,
			fmt.Sprintf("%d", r.P),
			fmt.Sprintf("%.2f", r.ClassicSpeedup),
			fmt.Sprintf("%.2f", r.PMESpeedup),
			fmt.Sprintf("%.2f", r.TotalSpeedup),
			mark,
		})
	}
	if err := report.Table(w, []string{"network", "procs", "classic speedup", "pme speedup", "total speedup", ""}, cells); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nThe paper's conclusion reads off the table: the classic part keeps")
	fmt.Fprintln(w, "scaling on the better networks, PME saturates much earlier, and on")
	fmt.Fprintln(w, "plain TCP/IP there is no configuration where PME parallelism pays.")
	return nil
}

// CSVScaleLimit writes the data as CSV.
func CSVScaleLimit(w io.Writer, rows []ScaleLimitRow) error {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			csvName(r.Network), fmt.Sprintf("%d", r.P),
			f(r.ClassicSpeedup), f(r.PMESpeedup), f(r.TotalSpeedup),
		})
	}
	return report.CSV(w, []string{"network", "procs", "classic_speedup", "pme_speedup", "total_speedup"}, cells)
}
