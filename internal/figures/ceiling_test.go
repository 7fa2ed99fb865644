package figures

import (
	"strings"
	"testing"

	"repro/internal/pmd"
)

func ceilingRowsOf(rows []Row, net string, decomp pmd.DecompKind) map[int]Row {
	out := map[int]Row{}
	for _, r := range rows {
		if r.Network() == net && r.Cell.Decomp == decomp {
			out[r.P()] = r
		}
	}
	return out
}

// TestCeilingShape is the tentpole's acceptance claim in miniature: on
// Gigabit TCP the replicated strategy has stopped scaling by 8 ranks
// while the domain strategy at the top of the sweep still beats the best
// replicated total anywhere in it.
func TestCeilingShape(t *testing.T) {
	rows := figureRows(t, quickSuite, "ceiling")
	procs := quickSuite.Cfg.CeilingProcs
	top := procs[len(procs)-1]

	rep := ceilingRowsOf(rows, "TCP/IP on Ethernet", pmd.DecompReplicated)
	dom := ceilingRowsOf(rows, "TCP/IP on Ethernet", pmd.DecompDomain)
	repBest := totalWall(rep[1])
	for _, r := range rep {
		if r.Err == "" && totalWall(r) < repBest {
			repBest = totalWall(r)
		}
	}
	// The plateau: going past 8 ranks buys the replicated path nothing.
	if rep[top].Err == "" && totalWall(rep[top]) < totalWall(rep[8]) {
		t.Fatalf("replicated kept scaling past 8: p=8 %g vs p=%d %g",
			totalWall(rep[8]), top, totalWall(rep[top]))
	}
	// The win: the domain path at the top of the sweep beats the best the
	// replicated path achieves at any rank count.
	if totalWall(dom[top]) >= repBest {
		t.Fatalf("domain at p=%d (%g) does not beat replicated best (%g)",
			top, totalWall(dom[top]), repBest)
	}

	if crossoverOf("TCP/IP on Ethernet", rows).CrossoverP == 0 {
		t.Fatal("no crossover reported on TCP although the domain path wins")
	}
	if effects, err := ceilingEffects(rows); err != nil || effects.MainSS["decomp"] <= 0 {
		t.Fatalf("DOE analysis missing the decomposition factor (error: %v)", err)
	}
}

// untiled replaces the quick grid's replicated TCP row at the top of the
// sweep by the row the full ladder has at p = 256: a point the strategy
// cannot tile, with the typed error and no cell behind it.
func untiled(t *testing.T, rows []Row) []Row {
	t.Helper()
	const tilingErr = "pmd: replicated decomposition cannot tile 256 ranks: slab PME assigns whole x-slabs; ranks must not exceed the K1=80 mesh slabs"
	for i, r := range rows {
		if r.Network() == "TCP/IP on Ethernet" && r.Cell.Decomp == pmd.DecompReplicated && r.P() == 64 {
			rows[i] = quickSuite.row(r.Cell.Cluster.Net, 256, 1, pmd.MiddlewareMPI, pmd.DecompReplicated)
			rows[i].Err = tilingErr
			return rows
		}
	}
	t.Fatal("no replicated TCP row at p=64 in the quick grid")
	return nil
}

// TestCeilingRendersUntileableCells: cells the strategy cannot tile carry
// the typed error instead of silently vanishing from the table, and the
// crossover verdict is still read off the cells that ran.
func TestCeilingRendersUntileableCells(t *testing.T) {
	rows := untiled(t, figureRows(t, quickSuite, "ceiling"))

	var b strings.Builder
	if err := quickSuite.Render(&b, figure(t, "ceiling"), rows, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	marked := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "replicated  256") {
			marked = strings.HasSuffix(line, "cannot tile") && strings.Count(line, "—") == 3
		}
	}
	if !marked {
		t.Fatalf("untileable cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "domain wins from") || !strings.Contains(out, " @ p=8") {
		t.Fatalf("crossover verdict missing:\n%s", out)
	}

	var c strings.Builder
	if err := quickSuite.Render(&c, figure(t, "ceiling"), rows, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "TCP/IP_on_Ethernet,replicated,256,0.000000,0.000000,0.000000,pmd:_replicated_decomposition_cannot_tile_256_ranks:") ||
		!strings.Contains(c.String(), "K1=80") {
		t.Fatalf("csv lost the tiling error:\n%s", c.String())
	}
}

// TestCeilingOutputIdenticalAcrossWorkers: the rendered ceiling bytes and
// the run counters are identical between the serial schedule and every
// number of cells in flight — the determinism contract extended past 8
// ranks, and to domain cells, whose replays wait for their recorder as
// replicated ones do. On the quick ladder that is one record, by the first
// cell, and every other cell a replay.
func TestCeilingOutputIdenticalAcrossWorkers(t *testing.T) {
	cfgs := workerConfigs(func(c *Config) { c.CeilingProcs = []int{1, 16} })
	identicalAcross(t, cfgs, renderFigures("ceiling"))

	quick := workerConfigs(nil)
	st := identicalAcross(t, []Config{quick[0], quick[2]}, renderFigures("ceiling"))
	cells := 3 * 2 * len(quick[0].CeilingProcs)
	if want := (RunStats{Misses: cells, TapeRecords: 1, TapeReplays: cells - 1}); st != want {
		t.Fatalf("quick ceiling RunStats %+v, want %+v", st, want)
	}
}
