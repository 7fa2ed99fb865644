package figures

import (
	"fmt"
	"io"

	"repro/internal/doe"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/report"
)

// CeilingRow is one (network, decomposition, processors) cell of the
// ceiling study: the sweep past the paper's 8-rank wall. A cell the
// decomposition cannot tile carries the typed error text instead of
// timings — the replicated/slab strategy simply has no configuration
// there, which is the point of the figure.
type CeilingRow struct {
	Network string
	Decomp  string
	P       int
	Classic float64 // seconds over the measured steps
	PME     float64
	Err     string // non-empty: the strategy cannot run this cell
}

// Total returns classic+PME (0 for an untileable cell).
func (r CeilingRow) Total() float64 { return r.Classic + r.PME }

// CeilingCrossover is the per-network verdict: where (and whether) the
// spatial decomposition beats the best the replicated strategy can do at
// any rank count.
type CeilingCrossover struct {
	Network        string
	ReplicatedBest float64 // best replicated total over the sweep (s)
	ReplicatedAtP  int     // rank count achieving it
	CrossoverP     int     // smallest p where domain < replicated best; 0 = never
	DomainBest     float64 // best domain total over the sweep (s)
	DomainAtP      int
}

// CeilingResult bundles the sweep, the per-network crossover verdicts and
// the extended factorial analysis (network × decomposition × processors,
// over the cells both strategies can run).
type CeilingResult struct {
	Rows      []CeilingRow
	Crossover []CeilingCrossover
	Effects   *doe.Analysis
}

// Ceiling sweeps both decompositions out to the configured CeilingProcs
// (default 1, 8, 16, 64, 256, 1024) on all three networks with the MPI
// middleware, and answers the question the paper left open: is the 8-rank
// plateau a property of CHARMM-style MD, or of the replicated-data
// strategy? Untileable replicated cells render their tiling error; the
// DOE analysis runs over the processor counts where both strategies have
// results, so the decomposition factor is not confounded with coverage.
func (s *Suite) Ceiling() (*CeilingResult, error) { return RunPlan(s, s.CeilingPlan()) }

// ceilingProcs is the rank ladder of the ceiling and attribution studies.
func (s *Suite) ceilingProcs() []int {
	if len(s.Cfg.CeilingProcs) == 0 {
		return []int{1, 8, 16, 64, 256, 1024}
	}
	return s.Cfg.CeilingProcs
}

// ceilingSweep enumerates networks × decompositions × the ceiling ladder
// (MPI, uni-processor): one (network, decomp, p, tiling error) label per
// grid point through row, and the cells of the points that tile.
func (s *Suite) ceilingSweep(row func(network, decomp string, p int, tileErr string)) []CellKey {
	var cells []CellKey
	for _, net := range netmodel.All() {
		for _, decomp := range []pmd.DecompKind{pmd.DecompReplicated, pmd.DecompDomain} {
			for _, p := range s.ceilingProcs() {
				if err := pmd.ValidateDecomp(decomp, p, s.Cfg.MD.PME); err != nil {
					row(net.Name, decomp.String(), p, err.Error())
					continue
				}
				row(net.Name, decomp.String(), p, "")
				cells = append(cells, s.cell(net, p, 1, pmd.MiddlewareMPI, decomp))
			}
		}
	}
	return cells
}

// CeilingPlan is the ceiling study as a plan: the healthy cells of the
// sweep; untileable grid points are rows without a cell.
func (s *Suite) CeilingPlan() Plan[*CeilingResult] {
	var rows []CeilingRow
	cells := s.ceilingSweep(func(network, decomp string, p int, tileErr string) {
		rows = append(rows, CeilingRow{Network: network, Decomp: decomp, P: p, Err: tileErr})
	})
	bothTile := func(p int) bool {
		return pmd.ValidateDecomp(pmd.DecompReplicated, p, s.Cfg.MD.PME) == nil &&
			pmd.ValidateDecomp(pmd.DecompDomain, p, s.Cfg.MD.PME) == nil
	}
	return Plan[*CeilingResult]{Cells: cells, Fold: func(results []*pmd.Result) (*CeilingResult, error) {
		out := &CeilingResult{Rows: append([]CeilingRow(nil), rows...)}
		var obs []doe.Observation
		for i := range out.Rows {
			row := &out.Rows[i]
			if row.Err != "" {
				continue
			}
			c, pm := results[0].PhaseTotals()
			results = results[1:]
			row.Classic, row.PME = c.Wall, pm.Wall
			if bothTile(row.P) {
				obs = append(obs, doe.Observation{
					Levels: map[string]string{
						"network": row.Network,
						"decomp":  row.Decomp,
						"procs":   fmt.Sprintf("%d", row.P),
					},
					Y: row.Total(),
				})
			}
		}
		for _, net := range netmodel.All() {
			out.Crossover = append(out.Crossover, crossoverOf(net.Name, out.Rows))
		}
		a, err := doe.Analyze(obs)
		if err != nil {
			return nil, err
		}
		out.Effects = a
		return out, nil
	}}
}

// crossoverOf reads one network's verdict off the sweep: each strategy's
// best total, and the smallest domain rank count that beats the best the
// replicated strategy achieves anywhere in the sweep.
func crossoverOf(network string, rows []CeilingRow) CeilingCrossover {
	cross := CeilingCrossover{Network: network}
	for _, r := range rows {
		if r.Network != network || r.Err != "" {
			continue
		}
		switch r.Decomp {
		case pmd.DecompReplicated.String():
			if cross.ReplicatedAtP == 0 || r.Total() < cross.ReplicatedBest {
				cross.ReplicatedBest, cross.ReplicatedAtP = r.Total(), r.P
			}
		case pmd.DecompDomain.String():
			if cross.DomainAtP == 0 || r.Total() < cross.DomainBest {
				cross.DomainBest, cross.DomainAtP = r.Total(), r.P
			}
		}
	}
	for _, r := range rows {
		if r.Network == network && r.Decomp == pmd.DecompDomain.String() &&
			r.Err == "" && cross.ReplicatedAtP > 0 && r.Total() < cross.ReplicatedBest {
			cross.CrossoverP = r.P
			break
		}
	}
	return cross
}

// RenderCeiling writes the ceiling study: the sweep table, the crossover
// verdicts and the extended factor analysis.
func RenderCeiling(w io.Writer, c *CeilingResult) error {
	fmt.Fprintln(w, "Breaking the 8-rank ceiling — replicated/slab vs spatial domains + 2-D pencil PME")
	var cells [][]string
	for _, r := range c.Rows {
		if r.Err != "" {
			cells = append(cells, []string{
				r.Network, r.Decomp, fmt.Sprintf("%d", r.P), "—", "—", "—", "cannot tile",
			})
			continue
		}
		cells = append(cells, []string{
			r.Network, r.Decomp, fmt.Sprintf("%d", r.P),
			report.Seconds(r.Classic), report.Seconds(r.PME), report.Seconds(r.Total()), "",
		})
	}
	if err := report.Table(w, []string{"network", "decomp", "procs", "classic", "pme", "total", ""}, cells); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nCrossover (domain total vs the best replicated total at any rank count):")
	cells = cells[:0]
	for _, x := range c.Crossover {
		verdict := "never"
		if x.CrossoverP > 0 {
			verdict = fmt.Sprintf("p=%d", x.CrossoverP)
		}
		cells = append(cells, []string{
			x.Network,
			fmt.Sprintf("%s @ p=%d", report.Seconds(x.ReplicatedBest), x.ReplicatedAtP),
			fmt.Sprintf("%s @ p=%d", report.Seconds(x.DomainBest), x.DomainAtP),
			verdict,
		})
	}
	if err := report.Table(w, []string{"network", "replicated best", "domain best", "domain wins from"}, cells); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nExtended factorial (network × decomposition × processors, shared cells):")
	if err := RenderEffects(w, c.Effects); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nThe paper's answer to \"is there any easy parallelism in CHARMM?\" was no —")
	fmt.Fprintln(w, "but the wall it measured belongs to the replicated-data strategy, whose")
	fmt.Fprintln(w, "all-to-all force reduction and slab PME stop paying (and then stop tiling)")
	fmt.Fprintln(w, "past a handful of ranks. Owner-computes domains with halo exchange and a")
	fmt.Fprintln(w, "2-D pencil transpose keep both phases decomposable to O(1000) ranks.")
	return nil
}

// CSVCeiling writes the sweep as CSV (untileable cells carry the error).
func CSVCeiling(w io.Writer, c *CeilingResult) error {
	var cells [][]string
	for _, r := range c.Rows {
		cells = append(cells, []string{
			csvName(r.Network), r.Decomp, fmt.Sprintf("%d", r.P),
			f(r.Classic), f(r.PME), f(r.Total()), csvName(r.Err),
		})
	}
	return report.CSV(w, []string{"network", "decomp", "procs", "classic_s", "pme_s", "total_s", "error"}, cells)
}
