package figures

import (
	"fmt"
	"io"

	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/report"
)

// AblationRow is one variant of the what-if study.
type AblationRow struct {
	Variant string
	P       int
	Classic float64
	PME     float64
	Total   float64
}

// Ablation runs the design-choice ablations DESIGN.md calls out, all on
// the reference platform at the largest processor count:
//
//   - baseline (MPICH-1 collectives, stock TCP stack);
//   - modern collective algorithms (recursive doubling / ring);
//   - a stall-free TCP stack (flow control fixed, everything else equal);
//   - both fixes together.
//
// It quantifies the paper's closing claim that "optimizing the
// communication code ... will add a significant amount of scalability to
// CHARMM at no extra hardware cost".
func (s *Suite) Ablation() ([]AblationRow, error) { return RunPlan(s, s.AblationPlan()) }

// AblationPlan is the ablation study as a plan.
func (s *Suite) AblationPlan() Plan[[]AblationRow] {
	p := s.Cfg.Procs[len(s.Cfg.Procs)-1]
	noStall := netmodel.TCPGigE()
	noStall.Name = "TCP/IP (no stalls)"
	noStall.StallProb = 0

	variants := []struct {
		name   string
		net    netmodel.Params
		modern bool
	}{
		{"baseline (MPICH-1, stock TCP)", netmodel.TCPGigE(), false},
		{"modern collectives", netmodel.TCPGigE(), true},
		{"stall-free TCP stack", noStall, false},
		{"both fixes", noStall, true},
	}

	var cells []CellKey
	for _, v := range variants {
		c := s.cell(v.net, p, 1, pmd.MiddlewareMPI, s.Cfg.Decomp)
		c.Modern = v.modern
		cells = append(cells, c)
	}
	return Plan[[]AblationRow]{Cells: cells, Fold: func(results []*pmd.Result) ([]AblationRow, error) {
		var out []AblationRow
		for i, res := range results {
			c, pm := res.PhaseTotals()
			out = append(out, AblationRow{
				Variant: variants[i].name, P: res.P,
				Classic: c.Wall, PME: pm.Wall, Total: c.Wall + pm.Wall,
			})
		}
		return out, nil
	}}
}

// RenderAblation writes the ablation table.
func RenderAblation(w io.Writer, rows []AblationRow) error {
	fmt.Fprintln(w, "Ablation — software fixes on the reference platform (§5's claim that")
	fmt.Fprintln(w, "better communication software adds scalability at no hardware cost)")
	var max float64
	for _, r := range rows {
		if r.Total > max {
			max = r.Total
		}
	}
	var cells [][]string
	base := rows[0].Total
	for _, r := range rows {
		cells = append(cells, []string{
			r.Variant,
			fmt.Sprintf("%d", r.P),
			report.Seconds(r.Classic),
			report.Seconds(r.PME),
			report.Seconds(r.Total),
			fmt.Sprintf("%.2fx", base/r.Total),
			report.Bar(r.Total, max, 30),
		})
	}
	return report.Table(w, []string{"variant", "procs", "classic (s)", "pme (s)", "total (s)", "vs baseline", ""}, cells)
}

// CSVAblation writes the ablation data as CSV.
func CSVAblation(w io.Writer, rows []AblationRow) error {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			csvName(r.Variant), fmt.Sprintf("%d", r.P),
			f(r.Classic), f(r.PME), f(r.Total),
		})
	}
	return report.CSV(w, []string{"variant", "procs", "classic_s", "pme_s", "total_s"}, cells)
}
