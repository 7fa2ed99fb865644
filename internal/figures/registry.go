package figures

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/netmodel"
	"repro/internal/perf"
	"repro/internal/pmd"
	"repro/internal/report"
	"repro/internal/stats"
)

// Row is one grid point of a figure: the cell that was run for it, the
// labels a cell key cannot say, and what the run measured. Every figure
// reads the same rows; what differs is which cells it lists and which
// columns it prints.
type Row struct {
	Cell    CellKey
	CPUs    int    // CPUs on a node board; Fig. 9's dual-board p = 1 row runs on one of its two
	Variant string // ablation: the variant's name
	Err     string // ceiling grid: why the decomposition cannot tile the point — a row with no cell behind it

	Res          *pmd.Result     // nil for an untileable point
	Classic, PME pmd.PhaseSample // the slowest rank's phase totals over the measured steps
}

// P is the row's processor count.
func (r Row) P() int { return r.Cell.procs() }

// Network is the display name of the row's network.
func (r Row) Network() string { return r.Cell.Cluster.Net.Name }

// row plans one grid point under an explicit decomposition.
func (s *Suite) row(net netmodel.Params, procs, cpusPerNode int, mw pmd.MiddlewareKind, decomp pmd.DecompKind) Row {
	return Row{Cell: s.cell(net, procs, cpusPerNode, mw, decomp), CPUs: cpusPerNode}
}

// Figure is one experiment of the registry: the rows it plans, in request
// order, and the rendering of those rows once their cells have run.
type Figure struct {
	ID    string
	Paper bool // part of the paper report: -figure all and -outdir

	plan   func(s *Suite) []Row // nil: a diagram, no data rows
	render renderer
}

// renderer writes a figure from its rows, as text or as CSV. Only the
// recovery study reads the suite: its rows come from resilient runs it
// has yet to make.
type renderer func(s *Suite, w io.Writer, rows []Row, csv bool) error

// HasData reports whether the figure has data rows (and so a CSV form).
func (f Figure) HasData() bool { return f.plan != nil }

// Registry lists every experiment, in report order. Everything that
// enumerates the figures — the CLI, the report, the job service — reads
// this list.
func Registry() []Figure { return registry }

// Lookup finds an experiment by id.
func Lookup(id string) (Figure, bool) {
	i := slices.IndexFunc(registry, func(f Figure) bool { return f.ID == id })
	if i < 0 {
		return Figure{}, false
	}
	return registry[i], true
}

// Rows plans the figures, runs their cells — concatenated in figure
// order, so the records of a late figure overlap an early one's — as one
// batch, and returns each figure's rows with its stretch of the results
// attached.
func (s *Suite) Rows(figs ...Figure) ([][]Row, error) {
	out := make([][]Row, len(figs))
	var cells []CellKey
	for i, f := range figs {
		if f.plan != nil {
			out[i] = f.plan(s)
		}
		for _, r := range out[i] {
			if r.Err == "" {
				cells = append(cells, r.Cell)
			}
		}
	}
	results, err := s.RunCells(cells)
	if err != nil {
		return nil, err
	}
	for _, rows := range out {
		for i := range rows {
			if r := &rows[i]; r.Err == "" {
				r.Res, results = results[0], results[1:]
				r.Classic, r.PME = r.Res.PhaseTotals()
			}
		}
	}
	return out, nil
}

// Render writes a figure from its rows, as text or CSV.
func (s *Suite) Render(w io.Writer, f Figure, rows []Row, csv bool) error {
	if csv && !f.HasData() {
		return fmt.Errorf("figures: figure %s is a diagram and has no CSV form", f.ID)
	}
	return f.render(s, w, rows, csv)
}

// Profiles returns the analyzer's full output for every row with a result,
// keyed network/decomp/p= — the machine-readable companion of the
// attribution study that charmmbench's -profile-out serializes.
func Profiles(rows []Row) map[string]*perf.Profile {
	out := map[string]*perf.Profile{}
	for _, r := range rows {
		if r.Res != nil {
			out[fmt.Sprintf("%s/%s/p=%d", r.Network(), r.Cell.Decomp, r.P())] = r.Res.Profile()
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Columns.

// column is one column of a figure's table: its heading and the text of
// row i. It sees every row, because a bar is scaled by the largest of them
// and a speedup divides by another row's time.
type column struct {
	head string
	cell func(rows []Row, i int) string
}

// col is a column that reads its own row only.
func col(head string, cell func(Row) string) column {
	return column{head, func(rows []Row, i int) string { return cell(rows[i]) }}
}

// num is a text column of a measured quantity; a row with no cell behind
// it shows a dash.
func num(head, format string, v func(Row) float64) column {
	return col(head, func(r Row) string {
		if r.Res == nil {
			return "—"
		}
		return fmt.Sprintf(format, v(r))
	})
}

// secs is num in report.Seconds' format.
func secs(head string, v func(Row) float64) column { return num(head, "%.3f", v) }

// csvf is a CSV column of a measured quantity.
func csvf(head string, v func(Row) float64) column {
	return col(head, func(r Row) string { return f(v(r)) })
}

const barWidth = 30

// bar is the unlabelled bar column: v scaled by the largest v of the table.
func bar(v func(Row) float64) column {
	return column{"", func(rows []Row, i int) string {
		var max float64
		for _, r := range rows {
			if t := v(r); t > max {
				max = t
			}
		}
		return report.Bar(v(rows[i]), max, barWidth)
	}}
}

// stacked is the comp/comm/sync percentage bar of a split.
func stacked(head string, split func(Row) Breakdown) column {
	return col(head, func(r Row) string {
		comp, comm, sync := split(r).Percent()
		return report.StackedBar(comp, comm, sync, barWidth)
	})
}

// ccs is the comp/comm/sync percentages of a split in figures.
func ccs(head string, split func(Row) Breakdown) column {
	return col(head, func(r Row) string {
		comp, comm, sync := split(r).Percent()
		return fmt.Sprintf("%s/%s/%s", report.Pct(comp), report.Pct(comm), report.Pct(sync))
	})
}

// csvSplit is a split as three CSV columns of seconds (not percent, so
// the percentages are recomputable).
func csvSplit(prefix string, split func(Row) Breakdown) []column {
	return []column{
		csvf(prefix+"comp_s", func(r Row) float64 { return split(r).Comp }),
		csvf(prefix+"comm_s", func(r Row) float64 { return split(r).Comm }),
		csvf(prefix+"sync_s", func(r Row) float64 { return split(r).Sync }),
	}
}

// The quantities the columns print. Figs. 3, 8, 9 and the tables read a
// phase's wall clock; Figs. 4–6 its comp/comm/sync split, whose sum is
// Fig. 5's time.
func classicWall(r Row) float64    { return r.Classic.Wall }
func pmeWall(r Row) float64        { return r.PME.Wall }
func totalWall(r Row) float64      { return r.Classic.Wall + r.PME.Wall }
func classicSplit(r Row) Breakdown { return breakdownOf(r.Classic) }
func pmeSplit(r Row) Breakdown     { return breakdownOf(r.PME) }
func classicSum(r Row) float64     { return classicSplit(r).Total() }
func pmeSum(r Row) float64         { return pmeSplit(r).Total() }
func totalSum(r Row) float64       { return classicSplit(r).Total() + pmeSplit(r).Total() }

// totalSplit is the total-energy split of Fig. 8b.
func totalSplit(r Row) Breakdown {
	return Breakdown{
		Comp: r.Classic.Comp + r.PME.Comp,
		Comm: r.Classic.Comm + r.PME.Comm,
		Sync: r.Classic.Sync + r.PME.Sync,
	}
}

// commSpeed summarizes the per-rank per-step communication speed in MB/s:
// bytes sent over time spent in data transfer.
func commSpeed(r Row) stats.Summary {
	var speeds []float64
	for _, rankSteps := range r.Res.Timings {
		for _, st := range rankSteps {
			bytes := float64(st.Classic.Bytes + st.PME.Bytes)
			tcomm := st.Classic.Comm + st.PME.Comm
			if tcomm > 0 && bytes > 0 {
				speeds = append(speeds, bytes/tcomm/1e6)
			}
		}
	}
	return stats.Summarize(speeds)
}

func avgMBs(r Row) float64 { return commSpeed(r).Mean }
func minMBs(r Row) float64 { return commSpeed(r).Min }
func maxMBs(r Row) float64 { return commSpeed(r).Max }

// The label columns. Processor count, middleware and decomposition print
// the same in text and CSV; a network's display name loses its spaces.
var (
	colProcs  = col("procs", func(r Row) string { return fmt.Sprintf("%d", r.P()) })
	colMW     = col("middleware", func(r Row) string { return r.Cell.Middleware.String() })
	colDecomp = col("decomp", func(r Row) string { return r.Cell.Decomp.String() })
	colNet    = col("network", func(r Row) string { return r.Network() })
	csvNet    = col("network", func(r Row) string { return csvName(r.Network()) })
	colCPUs   = col("cpus/node", func(r Row) string { return fmt.Sprintf("%d", r.CPUs) })
	csvCPUs   = column{"cpus_per_node", colCPUs.cell}
)

// The column groups more than one figure prints.
var (
	wallCols   = []column{secs("classic (s)", classicWall), secs("pme (s)", pmeWall), secs("total (s)", totalWall)}
	csvPhases  = []column{csvf("classic_s", classicWall), csvf("pme_s", pmeWall)}
	csvWalls   = slices.Concat(csvPhases, []column{csvf("total_s", totalWall)})
	csvSplits  = slices.Concat(csvSplit("classic_", classicSplit), csvSplit("pme_", pmeSplit))
	classicBar = stacked("classic", classicSplit)
	pmeBar     = stacked("pme", pmeSplit)
)

// table is the rendering of a figure that is one table of its rows: the
// title lines, the text columns, the CSV columns, and whatever text
// follows the table.
func table(title string, text, csv []column, trailer func(w io.Writer, rows []Row) error) renderer {
	return func(_ *Suite, w io.Writer, rows []Row, asCSV bool) error {
		if asCSV {
			return writeTable(report.CSV, w, csv, rows)
		}
		fmt.Fprintln(w, title)
		if err := writeTable(report.Table, w, text, rows); err != nil || trailer == nil {
			return err
		}
		return trailer(w, rows)
	}
}

func writeTable(write func(io.Writer, []string, [][]string) error, w io.Writer, cols []column, rows []Row) error {
	heads := make([]string, len(cols))
	lines := make([][]string, len(rows))
	for j, c := range cols {
		heads[j] = c.head
		for i := range rows {
			lines[i] = append(lines[i], c.cell(rows, i))
		}
	}
	return write(w, heads, lines)
}

func f(v float64) string { return fmt.Sprintf("%.6f", v) }

// csvName strips the spaces so CSV fields stay quote-free.
func csvName(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, " ", "_"), ",", "")
}

// ---------------------------------------------------------------------------
// The cell lists of Figs. 3–9 and the factorial table.

// sweep plans the MPI, uni-processor cells of nets × procs under the
// suite's decomposition, network by network — the grid Figs. 3–7 and the
// scale-limit table read.
func (s *Suite) sweep(nets []netmodel.Params, procs []int) []Row {
	var rows []Row
	for _, net := range nets {
		for _, p := range procs {
			rows = append(rows, s.row(net, p, 1, pmd.MiddlewareMPI, s.Cfg.Decomp))
		}
	}
	return rows
}

// referenceRows are the reference case (TCP/IP, MPI, uni-processor) over
// the configured processor counts — Figs. 3 and 4.
func (s *Suite) referenceRows() []Row {
	return s.sweep([]netmodel.Params{netmodel.TCPGigE()}, s.Cfg.Procs)
}

// networkRows are the three networks over the processor counts; Fig. 5
// reads the times, Fig. 6 the percentages.
func (s *Suite) networkRows() []Row { return s.sweep(netmodel.All(), s.Cfg.Procs) }

// parallelRows are Fig. 7's: the network sweep where there is
// communication to time, p ≥ 2.
func (s *Suite) parallelRows() []Row {
	return slices.DeleteFunc(s.networkRows(), func(r Row) bool { return r.P() < 2 })
}

// middlewareRows compare the middlewares on TCP/IP, uni-processor nodes.
func (s *Suite) middlewareRows() []Row {
	var rows []Row
	for _, mw := range []pmd.MiddlewareKind{pmd.MiddlewareMPI, pmd.MiddlewareCMPI} {
		for _, p := range s.Cfg.Procs {
			rows = append(rows, s.row(netmodel.TCPGigE(), p, 1, mw, s.Cfg.Decomp))
		}
	}
	return rows
}

// boardRows sweep CPUs per node for TCP/IP (9a) and Myrinet (9b).
// Dual-node cells need an even processor count; p=1 reuses the
// uni-processor cell, as on the real machine (one busy CPU on a dual
// board).
func (s *Suite) boardRows() []Row {
	var rows []Row
	for _, net := range []netmodel.Params{netmodel.TCPGigE(), netmodel.MyrinetGM()} {
		for _, cpus := range []int{1, 2} {
			for _, p := range s.Cfg.Procs {
				useCPUs := cpus
				if p == 1 {
					useCPUs = 1
				}
				if p%useCPUs != 0 {
					continue
				}
				r := s.row(net, p, useCPUs, pmd.MiddlewareMPI, s.Cfg.Decomp)
				r.CPUs = cpus // the label is the board, not what p=1 runs on
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// topProcs is the largest configured processor count.
func (s *Suite) topProcs() int { return s.Cfg.Procs[len(s.Cfg.Procs)-1] }

// factorialRows are every factor combination of the 3×2×2 design of §3.1
// at the largest configured processor count.
func (s *Suite) factorialRows() []Row {
	p := s.topProcs()
	var rows []Row
	for _, net := range netmodel.All() {
		for _, mw := range []pmd.MiddlewareKind{pmd.MiddlewareMPI, pmd.MiddlewareCMPI} {
			for _, cpus := range []int{1, 2} {
				if p%cpus == 0 {
					rows = append(rows, s.row(net, p, cpus, mw, s.Cfg.Decomp))
				}
			}
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// The registry.

var registry = []Figure{
	{ID: "1", Paper: true, render: diagram(fig1)},
	{ID: "2", Paper: true, render: diagram(fig2)},
	{ID: "3", Paper: true, plan: (*Suite).referenceRows, render: table(
		"Figure 3 — wall clock of the total energy calculation\n"+
			"(reference case: MPI middleware, TCP/IP on Ethernet, uni-processor)",
		slices.Concat([]column{colProcs}, wallCols, []column{bar(totalWall)}),
		slices.Concat([]column{colProcs}, csvWalls), nil)},
	{ID: "4", Paper: true, plan: (*Suite).referenceRows, render: table(
		"Figure 4 — percentage of computation (#), communication (=),\n"+
			"synchronization (.) in the classic (a) and PME (b) energy calculation",
		[]column{colProcs, classicBar, ccs("c/c/s", classicSplit), pmeBar, ccs("c/c/s", pmeSplit)},
		slices.Concat([]column{colProcs}, csvSplits), nil)},
	{ID: "5", Paper: true, plan: (*Suite).networkRows, render: table(
		"Figure 5 — wall clock of the total energy calculation per network",
		[]column{colNet, colProcs, secs("classic (s)", classicSum), secs("pme (s)", pmeSum), secs("total (s)", totalSum), bar(totalSum)},
		slices.Concat([]column{csvNet, colProcs}, csvSplits), nil)},
	{ID: "6", Paper: true, plan: (*Suite).networkRows, render: table(
		"Figure 6 — percentage breakdown per network: classic (a), PME (b)",
		[]column{colNet, colProcs, classicBar, pmeBar, ccs("pme c/c/s", pmeSplit)},
		slices.Concat([]column{csvNet, colProcs}, csvSplits), nil)},
	{ID: "7", Paper: true, plan: (*Suite).parallelRows, render: table(
		"Figure 7 — average and variability of the communication speed per node",
		[]column{colNet, colProcs, num("avg MB/s", "%.1f", avgMBs), num("min", "%.1f", minMBs), num("max", "%.1f", maxMBs),
			col("", func(r Row) string { return report.Bar(avgMBs(r), 140, barWidth) })},
		[]column{csvNet, colProcs, csvf("avg_mbs", avgMBs), csvf("min_mbs", minMBs), csvf("max_mbs", maxMBs)}, nil)},
	{ID: "8", Paper: true, plan: (*Suite).middlewareRows, render: table(
		"Figure 8 — middleware comparison on TCP/IP (a: wall clock, b: breakdown)",
		slices.Concat([]column{colMW, colProcs}, wallCols, []column{stacked("breakdown", totalSplit), ccs("c/c/s", totalSplit)}),
		slices.Concat([]column{colMW, colProcs}, csvPhases, csvSplit("", totalSplit)), nil)},
	{ID: "9", Paper: true, plan: (*Suite).boardRows, render: table(
		"Figure 9 — uni- vs dual-processor nodes (a: TCP/IP, b: Myrinet)",
		slices.Concat([]column{colNet, colCPUs, colProcs}, wallCols, []column{bar(totalWall)}),
		slices.Concat([]column{csvNet, csvCPUs, colProcs}, csvPhases), nil)},
	{ID: "factorial", Paper: true, plan: (*Suite).factorialRows, render: table(
		"Full factorial design (§3.1) — all factor combinations",
		slices.Concat([]column{colNet, colMW, colCPUs, colProcs}, wallCols),
		slices.Concat([]column{csvNet, colMW, csvCPUs, colProcs}, csvWalls), nil)},
	{ID: "effects", Paper: true, plan: (*Suite).factorialRows, render: renderFactorialEffects},
	{ID: "ablation", Paper: true, plan: (*Suite).ablationRows, render: table(ablationTitle, ablationText, ablationCSV, nil)},
	{ID: "scalelimit", Paper: true, plan: (*Suite).scaleLimitRows, render: table(scaleLimitTitle, scaleLimitText, scaleLimitCSV, scaleLimitTrailer)},
	{ID: "ceiling", plan: (*Suite).ceilingRows, render: table(ceilingTitle, ceilingText, ceilingCSV, ceilingTrailer)},
	{ID: "recovery", plan: (*Suite).recoveryRows, render: renderRecovery},
	{ID: "attribution", plan: (*Suite).ceilingRows, render: table(attributionTitle, attributionText, attributionCSV, attributionTrailer)},
}
