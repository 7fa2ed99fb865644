package figures

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/doe"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/report"
)

// ceilingRows sweep both decompositions out to the configured CeilingProcs
// (default 1, 8, 16, 64, 256, 1024) on all three networks with the MPI
// middleware — the grid of the ceiling study, which asks whether the
// 8-rank plateau is a property of CHARMM-style MD or of the replicated-data
// strategy, and of the attribution study, which asks why. A point the
// decomposition cannot tile is a row carrying the typed error text and no
// cell: the replicated/slab strategy simply has no configuration there,
// which is the point of the figure.
func (s *Suite) ceilingRows() []Row {
	var rows []Row
	for _, net := range netmodel.All() {
		for _, decomp := range []pmd.DecompKind{pmd.DecompReplicated, pmd.DecompDomain} {
			for _, p := range s.Cfg.CeilingProcs {
				r := s.row(net, p, 1, pmd.MiddlewareMPI, decomp)
				if err := pmd.ValidateDecomp(decomp, p, s.Cfg.MD.PME); err != nil {
					r.Err = err.Error()
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// tileMark is the last text column of the ceiling grid's tables: what a
// tiled point says there, "cannot tile" for the others.
func tileMark(head string, tiled func(Row) string) column {
	return col(head, func(r Row) string {
		if r.Err != "" {
			return "cannot tile"
		}
		return tiled(r)
	})
}

// csvErr carries an untileable point's error into its CSV line.
var csvErr = col("error", func(r Row) string { return csvName(r.Err) })

const ceilingTitle = "Breaking the 8-rank ceiling — replicated/slab vs spatial domains + 2-D pencil PME"

var (
	ceilingText = []column{colNet, colDecomp, colProcs,
		secs("classic", classicWall), secs("pme", pmeWall), secs("total", totalWall),
		tileMark("", func(Row) string { return "" })}
	ceilingCSV = slices.Concat([]column{csvNet, colDecomp, colProcs}, csvWalls, []column{csvErr})
)

// ceilingCrossover is the per-network verdict: where (and whether) the
// spatial decomposition beats the best the replicated strategy can do at
// any rank count.
type ceilingCrossover struct {
	Network        string
	ReplicatedBest float64 // best replicated total over the sweep (s)
	ReplicatedAtP  int     // rank count achieving it
	CrossoverP     int     // smallest p where domain < replicated best; 0 = never
	DomainBest     float64 // best domain total over the sweep (s)
	DomainAtP      int
}

// crossoverOf reads one network's verdict off the sweep: each strategy's
// best total, and the smallest domain rank count that beats the best the
// replicated strategy achieves anywhere in the sweep.
func crossoverOf(network string, rows []Row) ceilingCrossover {
	cross := ceilingCrossover{Network: network}
	for _, r := range rows {
		if r.Network() != network || r.Err != "" {
			continue
		}
		switch r.Cell.Decomp {
		case pmd.DecompReplicated:
			if cross.ReplicatedAtP == 0 || totalWall(r) < cross.ReplicatedBest {
				cross.ReplicatedBest, cross.ReplicatedAtP = totalWall(r), r.P()
			}
		case pmd.DecompDomain:
			if cross.DomainAtP == 0 || totalWall(r) < cross.DomainBest {
				cross.DomainBest, cross.DomainAtP = totalWall(r), r.P()
			}
		}
	}
	for _, r := range rows {
		if r.Network() == network && r.Cell.Decomp == pmd.DecompDomain &&
			r.Err == "" && cross.ReplicatedAtP > 0 && totalWall(r) < cross.ReplicatedBest {
			cross.CrossoverP = r.P()
			break
		}
	}
	return cross
}

// ceilingEffects is the extended factorial analysis (network ×
// decomposition × processors). It runs over the processor counts where
// both strategies have results, so the decomposition factor is not
// confounded with coverage.
func ceilingEffects(rows []Row) (*doe.Analysis, error) {
	untiled := map[int]bool{}
	for _, r := range rows {
		if r.Err != "" {
			untiled[r.P()] = true
		}
	}
	var shared []Row
	for _, r := range rows {
		if !untiled[r.P()] {
			shared = append(shared, r)
		}
	}
	return effectsOf(shared, func(r Row) map[string]string {
		return map[string]string{
			"network": r.Network(),
			"decomp":  r.Cell.Decomp.String(),
			"procs":   fmt.Sprintf("%d", r.P()),
		}
	})
}

// ceilingTrailer writes what follows the sweep table: the crossover
// verdicts and the extended factor analysis.
func ceilingTrailer(w io.Writer, rows []Row) error {
	effects, err := ceilingEffects(rows)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nCrossover (domain total vs the best replicated total at any rank count):")
	var cells [][]string
	for _, net := range netmodel.All() {
		x := crossoverOf(net.Name, rows)
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
	if err := renderEffects(w, effects); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nThe paper's answer to \"is there any easy parallelism in CHARMM?\" was no —")
	fmt.Fprintln(w, "but the wall it measured belongs to the replicated-data strategy, whose")
	fmt.Fprintln(w, "all-to-all force reduction and slab PME stop paying (and then stop tiling)")
	fmt.Fprintln(w, "past a handful of ranks. Owner-computes domains with halo exchange and a")
	fmt.Fprintln(w, "2-D pencil transpose keep both phases decomposable to O(1000) ranks.")
	return nil
}
