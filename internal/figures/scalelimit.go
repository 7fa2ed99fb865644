package figures

import (
	"fmt"
	"io"

	"repro/internal/netmodel"
)

// scaleLimitRows extend the processor sweep to 16 and 32 ranks for the
// per-phase speedups of §5 — the paper's closing claim is that the classic
// calculation has enough parallelism for 32–64 processor clusters while
// PME stops paying at about a quarter of that unless the interconnect is
// a low-overhead SAN.
func (s *Suite) scaleLimitRows() []Row {
	return s.sweep(netmodel.All(), []int{1, 2, 4, 8, 16, 32})
}

// speedup is row i's speedup in v over its network's p = 1 row, the row
// its network's stretch of the sweep starts at.
func speedup(v func(Row) float64, rows []Row, i int) float64 {
	seq := i
	for rows[seq].P() != 1 {
		seq--
	}
	return v(rows[seq]) / v(rows[i])
}

// speedupCol prints a speedup: "%.2f" in the text table, f's "%.6f" in CSV.
func speedupCol(head, format string, v func(Row) float64) column {
	return column{head, func(rows []Row, i int) string { return fmt.Sprintf(format, speedup(v, rows, i)) }}
}

const scaleLimitTitle = "Scalability limit (§5) — per-phase speedups out to 32 processors"

var (
	scaleLimitText = []column{colNet, colProcs,
		speedupCol("classic speedup", "%.2f", classicWall),
		speedupCol("pme speedup", "%.2f", pmeWall),
		speedupCol("total speedup", "%.2f", totalWall),
		{"", func(rows []Row, i int) string {
			if speedup(totalWall, rows, i)/float64(rows[i].P()) >= 0.5 {
				return "≥50% efficient"
			}
			return ""
		}}}
	scaleLimitCSV = []column{csvNet, colProcs,
		speedupCol("classic_speedup", "%.6f", classicWall),
		speedupCol("pme_speedup", "%.6f", pmeWall),
		speedupCol("total_speedup", "%.6f", totalWall)}
)

func scaleLimitTrailer(w io.Writer, _ []Row) error {
	fmt.Fprintln(w, "\nThe paper's conclusion reads off the table: the classic part keeps")
	fmt.Fprintln(w, "scaling on the better networks, PME saturates much earlier, and on")
	fmt.Fprintln(w, "plain TCP/IP there is no configuration where PME parallelism pays.")
	return nil
}
