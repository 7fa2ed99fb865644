package figures

import (
	"fmt"
	"slices"

	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// ablationRows are the design-choice ablations DESIGN.md calls out, all on
// the reference platform at the largest processor count:
//
//   - baseline (MPICH-1 collectives, stock TCP stack);
//   - modern collective algorithms (recursive doubling / ring);
//   - a stall-free TCP stack (flow control fixed, everything else equal);
//   - both fixes together.
//
// The study quantifies the paper's closing claim that "optimizing the
// communication code ... will add a significant amount of scalability to
// CHARMM at no extra hardware cost".
func (s *Suite) ablationRows() []Row {
	noStall := netmodel.TCPGigE()
	noStall.Name = "TCP/IP (no stalls)"
	noStall.StallProb = 0

	var rows []Row
	for _, v := range []struct {
		name   string
		net    netmodel.Params
		modern bool
	}{
		{"baseline (MPICH-1, stock TCP)", netmodel.TCPGigE(), false},
		{"modern collectives", netmodel.TCPGigE(), true},
		{"stall-free TCP stack", noStall, false},
		{"both fixes", noStall, true},
	} {
		r := s.row(v.net, s.topProcs(), 1, pmd.MiddlewareMPI, s.Cfg.Decomp)
		r.Cell.Modern, r.Variant = v.modern, v.name
		rows = append(rows, r)
	}
	return rows
}

const ablationTitle = "Ablation — software fixes on the reference platform (§5's claim that\n" +
	"better communication software adds scalability at no hardware cost)"

var (
	ablationText = slices.Concat(
		[]column{col("variant", func(r Row) string { return r.Variant }), colProcs}, wallCols,
		[]column{{"vs baseline", func(rows []Row, i int) string {
			return fmt.Sprintf("%.2fx", totalWall(rows[0])/totalWall(rows[i]))
		}}, bar(totalWall)})
	ablationCSV = slices.Concat([]column{col("variant", func(r Row) string { return csvName(r.Variant) }), colProcs}, csvWalls)
)
